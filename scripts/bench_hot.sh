#!/usr/bin/env bash
# bench_hot.sh — regenerate BENCH_hotpath.json, the hot-path allocation
# ledger that pairs with the hotalloc analyzer (ugolint -hot).
#
# Runs the allocation benchmarks (internal/scip, internal/lp,
# internal/sdp, internal/maxflow, internal/ug/comm/net, internal/obs)
# twice — once in an exported copy of a baseline ref (default HEAD~1,
# override with $1) and once in the current tree — and writes the
# ns/op, B/op and allocs/op pairs (and iters/op where a benchmark
# reports it) side by side. A benchmark
# missing at the baseline (or an unresolvable baseline ref, e.g. a root
# commit) records "baseline": null, unless BASE_OVERLAY names its file:
# those files are copied from the current tree into the baseline copy,
# so a benchmark written against API the baseline already has still
# gets its "before".
#
#   scripts/bench_hot.sh            # compare working tree vs HEAD~1
#   scripts/bench_hot.sh v1.2.0     # compare vs a tag
#   BENCHTIME=5000x scripts/bench_hot.sh
#   BASE_OVERLAY=internal/lp/cutloop_test.go scripts/bench_hot.sh
#   BASE_OVERLAY=internal/sdp/solve_bench_test.go scripts/bench_hot.sh
#
# BenchmarkSDPNewtonStep has no baseline before the commit that made the
# step a function; BenchmarkSDPNewtonStepDenseReference, the same system
# from the test oracle's dense formulas, is its "before" in the same run.
# Likewise BenchmarkMaxFlowFresh, which builds a network per sink, is the
# same-run "before" of BenchmarkMaxFlowReset, and BenchmarkLPNodeJump/carry,
# which re-solves from the other subtree's basis, that of
# BenchmarkLPNodeJump/reload, which reloads the parent's snapshot first.
#
# The committed BENCH_hotpath.json is the record of what the hotalloc
# fixes bought; CI regenerates it as a build artifact. allocs/op is the
# stable, machine-independent column — ns/op and B/op are informative
# but load-dependent.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${1:-HEAD~1}"
BENCHTIME="${BENCHTIME:-2000x}"
PKGS="./internal/scip ./internal/lp ./internal/sdp ./internal/maxflow ./internal/ug/comm/net ./internal/obs"
BENCHES='^(BenchmarkProcessNode|BenchmarkSolveKnapsack|BenchmarkNodeHeap|BenchmarkLPResolve|BenchmarkSDPNewtonStep|BenchmarkSDPNewtonStepDenseReference|BenchmarkMaxFlowReset|BenchmarkMaxFlowFresh|BenchmarkFrameRoundTrip|BenchmarkRecorderEmit)$'
# Whole cut loops, a tenth of a second to seconds per op: a few
# iterations each, not BENCHTIME.
LOOP_BENCHES='^(BenchmarkLPSteinerCutLoop|BenchmarkLPDenseCutResolve)$'
LOOP_BENCHTIME="${LOOP_BENCHTIME:-5x}"
# Whole root-relaxation SDP solves, a millisecond to tens of them per op.
SOLVE_BENCHES='^BenchmarkSDPSolveRoot$'
SOLVE_BENCHTIME="${SOLVE_BENCHTIME:-100x}"
OUT="BENCH_hotpath.json"

# run_bench <dir> — emit "pkg name ns/op B/op allocs/op iters/op" per
# benchmark, "-" for a benchmark that reports no iters/op.
run_bench() {
    (cd "$1" &&
        go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" $PKGS 2>/dev/null &&
        go test -run '^$' -bench "$LOOP_BENCHES" -benchmem -benchtime "$LOOP_BENCHTIME" ./internal/lp 2>/dev/null &&
        # Node LPs after a jump in the search tree, milliseconds per op.
        go test -run '^$' -bench '^BenchmarkLPNodeJump$' -benchmem -benchtime 200x ./internal/lp 2>/dev/null &&
        go test -run '^$' -bench "$SOLVE_BENCHES" -benchmem -benchtime "$SOLVE_BENCHTIME" ./internal/sdp 2>/dev/null) |
        awk '/^pkg:/ { pkg = $2 }
             $1 ~ /^Benchmark/ && $NF == "allocs/op" {
                 name = $1; sub(/-[0-9]+$/, "", name)
                 v["iters/op"] = "-"
                 for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
                 print pkg, name, v["ns/op"], v["B/op"], v["allocs/op"], v["iters/op"]
             }'
}

base_commit=""
base_out=""
if git rev-parse --quiet --verify "${BASE_REF}^{commit}" >/dev/null; then
    base_commit=$(git rev-parse "${BASE_REF}^{commit}")
    worktree=$(mktemp -d)
    trap 'rm -rf "$worktree"' EXIT
    git archive "$base_commit" | tar -x -C "$worktree"
    for f in ${BASE_OVERLAY:-}; do
        cp "$f" "$worktree/$f"
    done
    echo "== baseline: $BASE_REF ($base_commit)" >&2
    base_out=$(run_bench "$worktree")
else
    echo "== baseline ref $BASE_REF not found; recording baseline: null" >&2
fi

echo "== current tree" >&2
cur_out=$(run_bench .)
if [ -z "$cur_out" ]; then
    echo "bench_hot: no benchmark output from the current tree" >&2
    exit 1
fi

cur_commit=$(git rev-parse HEAD)
git diff --quiet HEAD || cur_commit="$cur_commit+uncommitted"
awk -v baseref="$BASE_REF" -v basecommit="$base_commit" \
    -v curcommit="$cur_commit" '
function record(ns, bytes, allocs, iters) {
    return sprintf("{\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}", ns, bytes, allocs,
        (iters == "-" ? "" : ", \"iters_per_op\": " iters))
}
NR == FNR { if (NF == 6) base[$1 " " $2] = record($3, $4, $5, $6); next }
NF == 6 { cur[++n] = $0 }
END {
    printf "{\n"
    printf "  \"baseline_ref\": \"%s\",\n", baseref
    printf "  \"baseline_commit\": \"%s\",\n", basecommit
    printf "  \"commit\": \"%s\",\n", curcommit
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
        split(cur[i], f, " ")
        key = f[1] " " f[2]
        printf "    {\"package\": \"%s\", \"name\": \"%s\",\n", f[1], f[2]
        printf "     \"baseline\": %s,\n", (key in base ? base[key] : "null")
        printf "     \"current\": %s}%s\n", record(f[3], f[4], f[5], f[6]), (i < n ? "," : "")
    }
    printf "  ]\n}\n"
}' <(printf '%s\n' "$base_out") <(printf '%s\n' "$cur_out") >"$OUT"

echo "== wrote $OUT" >&2
