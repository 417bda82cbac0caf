#!/usr/bin/env bash
# flake.sh — the flake gate: the race detector over the packages whose
# tests are known to be timing-clean, twenty times each at one, two and
# four Ps. A test that fails one run in six on a two-core host fails
# here nearly always; CI runs it nightly (make flake).
#
#   scripts/flake.sh                 # the gated package set
#   COUNT=50 scripts/flake.sh        # more repetitions
#   scripts/flake.sh ./internal/ug   # try a package before adding it
#
# Not gated yet, each a known timing-dependent test; add the package,
# or drop the test from SKIP, when its fix lands (ROADMAP item 1):
#   ./internal/ug       TestDistributedWatchdogFiresOnDelayedPeer — the
#                       stall fires before any rank has been tracked
#   ./internal/serve    TestCancelMidSolve — the cancel can land during
#                       presolve, and the job then ends with no result
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-20}"
SKIP='^TestCancelMidSolve$'
if [ "$#" -gt 0 ]; then
    PKGS="$*"
else
    PKGS="./internal/serve ./internal/sdp ./internal/linalg ./internal/misdp"
fi

# shellcheck disable=SC2086  # PKGS is a word list
exec go test -race -count="$COUNT" -cpu=1,2,4 -skip "$SKIP" $PKGS
