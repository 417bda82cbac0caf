# Convenience targets; `make check` is the full verification gate.

.PHONY: build test lint race flake fmt check loc bench-hot trace-smoke net-smoke profile-smoke telemetry-smoke serve-smoke postmortem-smoke

build:
	go build ./...

test:
	go test ./...

# lint runs the solver-aware static analyzers (see internal/analysis and
# the "Static analysis" section of README.md).
lint:
	go run ./cmd/ugolint ./...

# bench-hot regenerates BENCH_hotpath.json, the hot-path allocation
# ledger: the scip/lp/sdp/comm-net allocation benchmarks at HEAD~1 vs the
# working tree, side by side (see scripts/bench_hot.sh and ugolint -hot).
bench-hot:
	./scripts/bench_hot.sh

race:
	go test -race ./internal/ug/... ./internal/scip/... ./internal/serve/... ./internal/obs/... ./internal/sdp/... ./internal/misdp/...

# flake is the nightly flake gate: -race -count=20 -cpu=1,2,4 over the
# packages with timing-sensitive tests (see scripts/flake.sh for the set;
# nothing is skipped).
flake:
	./scripts/flake.sh

# loc prints the system's size — non-test Go lines outside bench/ and
# testdata/, per package and in total: the number ROADMAP item 6 is
# measured in.
loc:
	./scripts/loc.sh

fmt:
	gofmt -w .

check:
	./scripts/check.sh

# trace-smoke runs a small instrumented Steiner solve and validates the
# resulting JSONL event trace with ugtrace (the same gate CI applies),
# including a racing ladder that names a winner, then a sequential solve
# that branches and its bound trajectory.
trace-smoke:
	go run ./cmd/ugsteiner -instance cc3-4p -workers 2 -racing -trace /tmp/ug-smoke.trace -stats
	go run ./cmd/ugtrace -validate /tmp/ug-smoke.trace
	go run ./cmd/ugtrace /tmp/ug-smoke.trace
	go run ./cmd/ugtrace -racing /tmp/ug-smoke.trace | grep -q '^winner: rank'
	go run ./cmd/ugsteiner -instance hc6u -sequential -time 3 -trace /tmp/ug-smoke-seq.trace -stats
	go run ./cmd/ugtrace -validate /tmp/ug-smoke-seq.trace
	go run ./cmd/ugtrace -bounds /tmp/ug-smoke-seq.trace

# net-smoke exercises the distributed path end to end: the coordinator
# self-spawns two worker processes, solves a small STP instance over
# loopback TCP (comm/net transport), leaving one Lamport-clocked trace
# per process. Each per-rank trace must validate on its own, the merged
# causal timeline must pass the cross-rank validator, and every analytics
# view must render from it. The same checks then run on ugmisdp, which
# is the same harness (internal/cli) around a different App. Needs built
# binaries: self-spawn re-invokes argv[0].
net-smoke:
	go build -o /tmp/ugsteiner-net ./cmd/ugsteiner
	go build -o /tmp/ugtrace-net ./cmd/ugtrace
	/tmp/ugsteiner-net -instance cc3-4p -net-procs 2 -trace /tmp/ug-net-smoke.trace -stats
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke.trace
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke.trace.rank1
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke.trace.rank2
	/tmp/ugtrace-net -merge -validate /tmp/ug-net-smoke.trace /tmp/ug-net-smoke.trace.rank1 /tmp/ug-net-smoke.trace.rank2
	/tmp/ugtrace-net -merge -o /tmp/ug-net-smoke.merged /tmp/ug-net-smoke.trace /tmp/ug-net-smoke.trace.rank1 /tmp/ug-net-smoke.trace.rank2
	/tmp/ugtrace-net -gantt -load -critpath -bounds /tmp/ug-net-smoke.merged
	go build -o /tmp/ugmisdp-net ./cmd/ugmisdp
	/tmp/ugmisdp-net -family ttd -net-procs 2 -trace /tmp/ug-net-smoke-misdp.trace -stats
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke-misdp.trace
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke-misdp.trace.rank1
	/tmp/ugtrace-net -validate /tmp/ug-net-smoke-misdp.trace.rank2
	/tmp/ugtrace-net -merge -validate /tmp/ug-net-smoke-misdp.trace /tmp/ug-net-smoke-misdp.trace.rank1 /tmp/ug-net-smoke-misdp.trace.rank2

# telemetry-smoke checks the whole live telemetry plane on a real solve
# run with -pprof and -watchdog: grammar-valid Prometheus /metrics
# carrying process_uptime_seconds and a registry series, a 1-second CPU
# profile, and five schema-valid SSE frames from /events, all scraped
# mid-solve (see scripts/profile_smoke.sh).
# profile-smoke is the historical name for the same gate.
telemetry-smoke profile-smoke:
	./scripts/profile_smoke.sh

# postmortem-smoke exercises the forensics pipeline on purpose-injected
# failures: a worker panic in an in-process solve and a watchdog stall in
# a distributed solve must each leave a bundle that ugtrace -postmortem
# validates — naming the panicking goroutine and the stalest rank
# respectively (see scripts/postmortem_smoke.sh).
postmortem-smoke:
	./scripts/postmortem_smoke.sh

# serve-smoke drives the ugserve daemon end to end over its HTTP API:
# STP + MISDP jobs solved to optimality, a duplicate submission hitting
# the presolve cache (cache=hit, presolve_seconds=0, serve_cache_hit
# incremented), five schema-valid SSE frames from a running job's
# /events stream, grammar-valid Prometheus /metrics, and a graceful
# SIGTERM drain during an active solve (see scripts/serve_smoke.sh).
serve-smoke:
	./scripts/serve_smoke.sh
