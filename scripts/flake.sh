#!/usr/bin/env bash
# flake.sh — the flake gate: the race detector over every package with
# timing-sensitive tests (schedulers, transports, watchdogs, numerical
# kernels), twenty times each at one, two and four Ps. A test that fails
# one run in six on a two-core host fails here nearly always; CI runs it
# nightly (make flake). There is no skip list: a test that cannot pass
# here is fixed at its source.
#
#   scripts/flake.sh                 # the gated package set
#   COUNT=50 scripts/flake.sh        # more repetitions
#   scripts/flake.sh ./internal/ug   # one package
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-20}"
if [ "$#" -gt 0 ]; then
    PKGS="$*"
else
    PKGS="./internal/serve ./internal/sdp ./internal/linalg ./internal/lp ./internal/scip ./internal/misdp ./internal/ug ./internal/ug/comm/... ./internal/core ./internal/obs ./internal/cli"
fi

# shellcheck disable=SC2086  # PKGS is a word list
exec go test -race -count="$COUNT" -cpu=1,2,4 $PKGS
