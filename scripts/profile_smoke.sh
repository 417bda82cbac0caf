#!/usr/bin/env bash
# profile_smoke.sh — smoke test for the live telemetry side-channel.
#
# Starts a deliberately slow solve with the debug server on a fixed
# loopback port, then (while the solver is working) checks every surface
# the -pprof flag exposes:
#
#   /metrics             Prometheus text exposition (grammar-checked,
#                        carrying process_uptime_seconds and the
#                        solve's registry)
#   /debug/pprof/profile 1-second CPU profile
#   /events              SSE stream (5 live frames, schema-validated
#                        with `ugtrace -frames`)
#
# The solve also runs with -watchdog armed, so the flag plumbing is
# exercised on a real run (a healthy solve must NOT fire it). The solve
# is bounded by -time so the background process always exits on its own;
# we also kill it on every exit path.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:6872
PROFILE=/tmp/ug-profile-smoke.pprof
METRICS=/tmp/ug-profile-smoke.metrics
FRAMES=/tmp/ug-profile-smoke.frames

go build -o /tmp/ugsteiner-prof ./cmd/ugsteiner
go build -o /tmp/ugtrace-prof ./cmd/ugtrace

# hc7u stays open until the 10 s time limit, so the process is
# reliably still alive while the 1-second CPU profile is captured; the
# trap kills it as soon as the checks pass.
/tmp/ugsteiner-prof -instance hc7u -workers 2 -time 10 -pprof "$ADDR" \
    -watchdog 30s >/tmp/ug-profile-smoke.out 2>&1 &
SOLVE_PID=$!
trap 'kill "$SOLVE_PID" 2>/dev/null; wait "$SOLVE_PID" 2>/dev/null || true' EXIT

# The debug server binds before the solve starts, but give the process a
# short retry window to come up.
ok=0
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/metrics" -o "$METRICS"; then
        ok=1
        break
    fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "profile-smoke: debug server never answered /metrics" >&2
    cat /tmp/ug-profile-smoke.out >&2
    exit 1
fi

# /metrics must serve Prometheus text exposition: the process uptime,
# a series from the solve's registry (the bus's subscriber gauge, which
# -pprof always creates), TYPE comments for the process gauges, and no
# line that is neither a comment nor a sample in the legal
# name{labels} value  shape (the same grammar the unit tests check line
# by line — this is the cheap end-to-end version).
grep -q '^process_uptime_seconds [0-9.e+-]*$' "$METRICS" || {
    echo "profile-smoke: /metrics missing process_uptime_seconds:" >&2
    cat "$METRICS" >&2
    exit 1
}
grep -q '^obs_bus_subscribers [0-9]*$' "$METRICS" || {
    echo "profile-smoke: /metrics missing the registry series obs_bus_subscribers:" >&2
    cat "$METRICS" >&2
    exit 1
}
grep -q '^# TYPE go_goroutines gauge$' "$METRICS" || {
    echo "profile-smoke: /metrics missing the go_goroutines TYPE line:" >&2
    cat "$METRICS" >&2
    exit 1
}
grep -q '^# TYPE ' "$METRICS" || {
    echo "profile-smoke: /metrics has no TYPE comments" >&2
    exit 1
}
if BAD=$(grep -Ev '^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eEInfNa-]+$' "$METRICS"); then
    echo "profile-smoke: malformed /metrics line(s):" >&2
    echo "$BAD" >&2
    exit 1
fi

# /events must stream well-formed SSE frames mid-solve: capture 5 data
# frames and validate each payload against the trace schema. grep -m5
# closes the pipe once it has its frames, which curl reports as a write
# error — that is the expected way to end the stream.
(curl -sN --max-time 15 "http://$ADDR/events?heartbeat=250ms" || true) \
    | grep -m5 '^data: ' >"$FRAMES" || true
if [ "$(wc -l <"$FRAMES")" -lt 5 ]; then
    echo "profile-smoke: fewer than 5 SSE frames from /events:" >&2
    cat "$FRAMES" >&2
    exit 1
fi
/tmp/ugtrace-prof -frames "$FRAMES" || {
    echo "profile-smoke: /events frames failed schema validation" >&2
    cat "$FRAMES" >&2
    exit 1
}

curl -sf "http://$ADDR/debug/pprof/profile?seconds=1" -o "$PROFILE"
if [ ! -s "$PROFILE" ]; then
    echo "profile-smoke: empty CPU profile" >&2
    exit 1
fi

echo "profile-smoke: ok (metrics $(wc -c <"$METRICS") bytes, $(wc -l <"$FRAMES") SSE frames, profile $(wc -c <"$PROFILE") bytes)"
