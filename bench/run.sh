#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes stays inside the checkout: the Go build cache and module cache
# go under .bench_build/ next to the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
