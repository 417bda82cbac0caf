#!/usr/bin/env bash
# check.sh — the repo's one-command verification gate.
#
# Runs, in order:
#   1. gofmt -l          formatting drift
#   2. go vet ./...      the stock toolchain analyzers
#   3. go build ./...    everything compiles
#   4. ugolint ./...     the solver-aware analyzers (internal/analysis),
#                        then the -hot allocation gate over the
#                        //ugo:hotpath region
#   5. go test -race     the concurrency-sensitive packages
#   6. go test ./...     the full tier-1 suite (includes the ugolint
#                        selfcheck via internal/analysis)
#   7. bench self-tests  the nested bench/ module
#   8. go test -fuzz     30 s each on the STP parser, the SDP
#                        certified bound, the TCP transport's
#                        message decoder and frame reader, the
#                        trace reader, and ugserve's JSON job spec
#                        (decode, Validate, instance build)
#   9. app.go <= 200     each app registration stays glue-sized
#  10. loc.sh            the system's size (informational, no threshold)
#
# Exits non-zero on the first failure.
set -u
cd "$(dirname "$0")/.."

fail=0
step() {
    echo "== $*"
}

step "gofmt -l"
unformatted=$(gofmt -l . 2>&1)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:"
    echo "$unformatted"
    fail=1
fi

step "go vet ./..."
go vet ./... || fail=1

step "go build ./..."
go build ./... || fail=1

step "ugolint ./..."
go run ./cmd/ugolint ./... || fail=1

step "ugolint -hot ./..."
# The hot-path allocation gate: any unsanctioned allocation inside the
# //ugo:hotpath region fails. The ranked table is noise when clean, so
# capture it and replay only on failure.
hotout=$(go run ./cmd/ugolint -hot ./...) || { echo "$hotout"; fail=1; }

step "go test -race ./internal/ug/... ./internal/scip/... ./internal/serve/... ./internal/obs/... ./internal/sdp/... ./internal/misdp/... ./internal/core/..."
go test -race ./internal/ug/... ./internal/scip/... ./internal/serve/... ./internal/obs/... ./internal/sdp/... ./internal/misdp/... ./internal/core/... || fail=1

step "go test ./..."
go test ./... || fail=1

step "cd bench && go test ./..."
# The benchmark's self-tests solve real instances through the decorated
# plugin stack, so they catch a solver change that breaks what the
# benchmark measures (decorated and bare counters must stay equal).
(cd bench && go test ./...) || fail=1

step "go test -fuzz (30 s each): FuzzReadSTP, FuzzSolveCertifiedBound, FuzzDecodeMessage, FuzzReadFrame, FuzzReadTrace, FuzzSpec"
# A crasher lands in the package's testdata/fuzz/ and fails the step; it
# is committed there, as a seed, together with its fix.
go test -run '^$' -fuzz '^FuzzReadSTP$' -fuzztime 30s -parallel 2 ./internal/steiner || fail=1
go test -run '^$' -fuzz '^FuzzSolveCertifiedBound$' -fuzztime 30s -parallel 2 ./internal/sdp || fail=1
go test -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime 30s -parallel 2 ./internal/ug/comm/net || fail=1
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 30s -parallel 2 ./internal/ug/comm/net || fail=1
go test -run '^$' -fuzz '^FuzzReadTrace$' -fuzztime 30s -parallel 2 ./internal/obs || fail=1
go test -run '^$' -fuzz '^FuzzSpec$' -fuzztime 30s -parallel 2 ./internal/serve || fail=1

step "app registrations <= 200 lines"
# The paper's claim is that a thin glue file makes a sequential solver
# parallel; an app.go past 200 lines is no longer thin.
for app in internal/steiner/app.go internal/misdp/app.go; do
    n=$(wc -l <"$app")
    if [ "$n" -gt 200 ]; then
        echo "$app: $n lines, over the 200-line glue budget"
        fail=1
    fi
done

step "scripts/loc.sh -total (non-test Go lines outside bench/ and testdata/)"
./scripts/loc.sh -total

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED"
    exit 1
fi
echo "check: OK"
