package obs

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"
)

// ServeSSE streams live bus events to one HTTP client as Server-Sent
// Events: one `data: <event JSONL>` frame per event until the client
// disconnects, the bus closes (its run ended), or the surface closes.
// `?kind=a,b` (or repeated kind parameters) filters to the named event
// kinds; `?heartbeat=` overrides the idle keepalive interval (minimum
// 10ms). This is the streaming core of the debug server's /events route
// and of ugserve's per-job event streams — the latter passes a bus
// scoped to a single job, so the handler is "the /events handler scoped
// to one job" by construction. A nil bus answers 503.
func (d *DebugServer) ServeSSE(w http.ResponseWriter, r *http.Request, bus *Bus) {
	if bus == nil {
		http.Error(w, "no event bus in this process (start the solve with -trace, -watchdog or -pprof)", http.StatusServiceUnavailable)
		return
	}
	if !d.admitSSE(w) {
		return
	}
	defer d.sseActive.Add(-1)
	events, cancel := bus.Subscribe(sseKinds(r)...)
	defer cancel()
	d.stream(w, r, events)
}

// ReplaySSE writes a fixed event list to one HTTP client in the same
// SSE frame format ServeSSE streams live, then ends the stream. It is
// the after-the-fact companion for finished runs: ugserve replays a
// terminal job's flight-recorder tail through it, so a client that
// arrives after completion still sees the last window of events
// (`?kind=` filtering works the same as on the live stream).
func (d *DebugServer) ReplaySSE(w http.ResponseWriter, r *http.Request, events []Event) {
	if !d.admitSSE(w) {
		return
	}
	defer d.sseActive.Add(-1)
	kinds := sseKinds(r)
	ch := make(chan Event, len(events))
	for _, ev := range events {
		if len(kinds) == 0 || slices.Contains(kinds, ev.Kind) {
			ch <- ev
		}
	}
	close(ch)
	d.stream(w, r, ch)
}

// admitSSE takes one of the surface's stream slots, live or replayed,
// or answers 503 and reports false when all are in use. The caller
// releases a taken slot with d.sseActive.Add(-1).
func (d *DebugServer) admitSSE(w http.ResponseWriter) bool {
	if n := d.sseActive.Add(1); n > maxSSESubscribers {
		d.sseActive.Add(-1)
		http.Error(w, fmt.Sprintf("too many event subscribers (cap %d)", maxSSESubscribers), http.StatusServiceUnavailable)
		return false
	}
	return true
}

// sseKinds parses the request's `?kind=` filter: comma-separated and/or
// repeated parameters, blanks dropped. Empty means every kind.
func sseKinds(r *http.Request) []string {
	var kinds []string
	for _, v := range r.URL.Query()["kind"] {
		for _, k := range strings.Split(v, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds = append(kinds, k)
			}
		}
	}
	return kinds
}

// stream writes the event-stream headers, then one frame per event
// until events closes, the client goes away or the surface closes, with
// keepalive comments while idle. It flushes whenever no further event
// is already waiting, so a replay goes out in one write.
func (d *DebugServer) stream(w http.ResponseWriter, r *http.Request, events <-chan Event) {
	heartbeat := d.sseHeartbeat
	if hb := r.URL.Query().Get("heartbeat"); hb != "" {
		if dur, err := time.ParseDuration(hb); err == nil && dur >= 10*time.Millisecond {
			heartbeat = dur
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	var buf []byte
	for {
		var err error
		select {
		case ev, ok := <-events:
			if !ok {
				return // bus closed under us (run/job ended), or replay done
			}
			buf = append(buf[:0], "data: "...)
			buf = ev.AppendJSON(buf)
			buf = append(buf, '\n', '\n')
			_, err = w.Write(buf)
		case <-ticker.C:
			_, err = fmt.Fprint(w, ": keepalive\n\n")
		case <-r.Context().Done():
			return
		case <-d.stop:
			return // surface closing: end the stream promptly
		}
		if err != nil || (len(events) == 0 && rc.Flush() != nil) {
			return
		}
	}
}
