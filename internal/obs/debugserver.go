package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// DebugServer is the one telemetry HTTP surface: net/http/pprof,
// /metrics (Prometheus text of ProcessMetrics plus a registry), and the
// admission every SSE stream on it shares. The solver CLIs serve it
// under -pprof with /events over the process bus; ugserve mounts its
// job API on it. Everything here is read-only observation.
type DebugServer struct {
	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
	stop     chan struct{} // closed by Close: terminates active SSE streams
	stopOnce sync.Once

	// sseHeartbeat is the idle keepalive interval of event streams
	// (comment frames, so proxies don't reap quiet streams).
	sseHeartbeat time.Duration
	sseActive    atomic.Int64
}

// maxSSESubscribers caps concurrent event streams, live and replayed,
// across the surface. Each live stream owns a bus ring plus a pump
// goroutine; past the cap the surface answers 503.
const maxSSESubscribers = 64

// NewDebugServer builds the surface over reg (nil serves only the
// process series) without binding it; a zero heartbeat means 15s. Its
// own mux, not http.DefaultServeMux, so importing this package never
// mounts profiling handlers on servers the caller owns.
func NewDebugServer(reg *Registry, heartbeat time.Duration) *DebugServer {
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	d := &DebugServer{mux: http.NewServeMux(), stop: make(chan struct{}), sseHeartbeat: heartbeat}
	d.mux.HandleFunc("/debug/pprof/", pprof.Index)
	d.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	d.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	d.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	d.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Process series first, then the registry: the name spaces
		// (go_*, process_* vs dotted registry names) do not collide.
		if err := WriteProm(w, ProcessMetrics()); err != nil {
			return
		}
		_ = WriteProm(w, reg.Snapshot()) // a failed write is a client gone away
	})
	return d
}

// StartDebugServer listens on addr (e.g. "localhost:6060" or ":0") and
// serves the surface plus /events, the bus's live SSE stream, until
// Close. reg may be nil; a nil bus makes /events answer 503.
func StartDebugServer(addr string, reg *Registry, bus *Bus) (*DebugServer, error) {
	d := NewDebugServer(reg, 0)
	d.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) { d.ServeSSE(w, r, bus) })
	if err := d.Listen(addr); err != nil {
		return nil, err
	}
	return d, nil
}

// HandleFunc mounts an extra route on the surface. Call it before Listen.
func (d *DebugServer) HandleFunc(pattern string, h http.HandlerFunc) { d.mux.HandleFunc(pattern, h) }

// Listen binds addr and serves the surface in a background goroutine
// until Close.
func (d *DebugServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	d.ln = ln
	// The timeouts bound a client that never finishes its request
	// headers or parks an idle keep-alive connection; they do not apply
	// to an SSE response being written.
	d.srv = &http.Server{Handler: d.mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { _ = d.srv.Serve(ln) }() // returns once Close tears the listener down
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close ends active SSE streams, stops the server and frees the
// listener. It is safe on a surface that never listened.
func (d *DebugServer) Close() error {
	d.stopOnce.Do(func() { close(d.stop) })
	if d.srv == nil {
		return nil
	}
	return d.srv.Close()
}
