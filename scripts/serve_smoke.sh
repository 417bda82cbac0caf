#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the ugserve service plane.
#
# Starts the daemon on a fixed loopback port and drives the full job
# lifecycle through the public API:
#
#   1. submit one STP job and one MISDP job, wait for both to finish
#      optimal (first submissions: presolve cache misses);
#   2. submit the STP instance again and assert the presolve cache hit:
#      the result reports cache=hit with presolve_seconds=0 (the
#      reduction phase is absent from the second job's stats) and
#      /metrics shows serve_cache_hit >= 1;
#   3. stream 5 live SSE frames from a running job's /events endpoint
#      and validate each payload against the trace schema
#      (`ugtrace -frames`);
#   4. check the /metrics Prometheus grammar line by line;
#   5. SIGTERM the daemon while that job is still solving and assert a
#      graceful drain: exit status 0 and the drained-job report.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:6873
BASE="http://$ADDR"
LOG=/tmp/ug-serve-smoke.log
METRICS=/tmp/ug-serve-smoke.metrics
FRAMES=/tmp/ug-serve-smoke.frames
RESP=/tmp/ug-serve-smoke.resp

go build -o /tmp/ugserve-smoke ./cmd/ugserve
go build -o /tmp/ugtrace-serve ./cmd/ugtrace

/tmp/ugserve-smoke -listen "$ADDR" -max-concurrent 2 -workers 2 \
    -drain-grace 2s >"$LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; wait "$SERVE_PID" 2>/dev/null || true' EXIT

ok=0
for _ in $(seq 1 50); do
    if curl -sf "$BASE/metrics" -o /dev/null; then
        ok=1
        break
    fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "serve-smoke: ugserve never answered /metrics" >&2
    cat "$LOG" >&2
    exit 1
fi

# submit POSTs a job spec and prints the assigned job ID.
submit() {
    curl -sf -X POST -H 'Content-Type: application/json' -d "$1" \
        "$BASE/v1/jobs" -o "$RESP" || {
        echo "serve-smoke: submit failed for $1" >&2
        cat "$RESP" >&2 || true
        exit 1
    }
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$RESP" | head -1
}

# wait_done polls a job until it reaches a terminal state (60s budget)
# and leaves the final status JSON in $RESP.
wait_done() {
    local id=$1
    for _ in $(seq 1 300); do
        curl -sf "$BASE/v1/jobs/$id" -o "$RESP"
        if grep -Eq '"state": "(done|failed|cancelled|deadline_exceeded)"' "$RESP"; then
            return 0
        fi
        sleep 0.2
    done
    echo "serve-smoke: job $id never finished:" >&2
    cat "$RESP" >&2
    exit 1
}

expect() {
    grep -q "$1" "$RESP" || {
        echo "serve-smoke: job response missing $1:" >&2
        cat "$RESP" >&2
        exit 1
    }
}

# --- 1. one STP job and one MISDP job, both fresh presolves ---------------
STP_SPEC='{"kind":"stp","instance":"cc3-4p","workers":2}'
STP1=$(submit "$STP_SPEC")
MISDP1=$(submit '{"kind":"misdp","family":"mkp","workers":2}')
[ -n "$STP1" ] && [ -n "$MISDP1" ] || {
    echo "serve-smoke: submissions returned no job IDs" >&2
    exit 1
}
wait_done "$STP1"
expect '"state": "done"'
expect '"status": "optimal"'
expect '"cache": "miss"'
wait_done "$MISDP1"
expect '"state": "done"'
expect '"status": "optimal"'
expect '"cache": "miss"'

# --- 2. duplicate STP submission must hit the presolve cache --------------
STP2=$(submit "$STP_SPEC")
wait_done "$STP2"
expect '"state": "done"'
expect '"cache": "hit"'
# A hit skips the reduction phase entirely: the second job's stats carry
# no presolve time.
expect '"presolve_seconds": 0,'

curl -sf "$BASE/metrics" -o "$METRICS"
grep -Eq '^serve_cache_hit [1-9]' "$METRICS" || {
    echo "serve-smoke: serve_cache_hit did not increment:" >&2
    grep '^serve_cache' "$METRICS" >&2 || true
    exit 1
}

# --- 3. /metrics must be grammar-valid Prometheus text exposition ---------
grep -q '^# TYPE go_goroutines gauge$' "$METRICS" || {
    echo "serve-smoke: /metrics missing the go_goroutines TYPE line" >&2
    exit 1
}
if BAD=$(grep -Ev '^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEInfNa-]+$' "$METRICS"); then
    echo "serve-smoke: malformed /metrics line(s):" >&2
    echo "$BAD" >&2
    exit 1
fi

# --- 4. live SSE frames from a running job's event stream -----------------
# hc6p solves for long enough to stream against and to still be running
# when the SIGTERM lands below.
SLOW=$(submit '{"kind":"stp","instance":"hc6p","workers":2}')
for _ in $(seq 1 100); do
    curl -sf "$BASE/v1/jobs/$SLOW" -o "$RESP"
    grep -q '"state": "running"' "$RESP" && break
    sleep 0.1
done
grep -q '"state": "running"' "$RESP" || {
    echo "serve-smoke: slow job never started running:" >&2
    cat "$RESP" >&2
    exit 1
}
# grep -m5 closes the pipe once it has its frames; curl reports that as
# a write error — the expected way to end the stream.
(curl -sN --max-time 20 "$BASE/v1/jobs/$SLOW/events?heartbeat=250ms" || true) \
    | grep -m5 '^data: ' >"$FRAMES" || true
if [ "$(wc -l <"$FRAMES")" -lt 5 ]; then
    echo "serve-smoke: fewer than 5 SSE frames from the job stream:" >&2
    cat "$FRAMES" >&2
    exit 1
fi
/tmp/ugtrace-serve -frames "$FRAMES" || {
    echo "serve-smoke: SSE frames failed schema validation" >&2
    cat "$FRAMES" >&2
    exit 1
}

# --- 5. SIGTERM during the active solve must drain gracefully -------------
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: ugserve exited $rc after SIGTERM (want 0):" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q 'drained (1 running job' "$LOG" || {
    echo "serve-smoke: drain report missing from the log:" >&2
    cat "$LOG" >&2
    exit 1
}

echo "serve-smoke: ok (cache hit on duplicate, $(wc -l <"$FRAMES") SSE frames, graceful drain)"
