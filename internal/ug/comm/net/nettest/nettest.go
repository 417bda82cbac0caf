// Package nettest runs a comm/net roster on 127.0.0.1 inside one test
// process: the real transport — listener, rendezvous, framing,
// heartbeats, fault plans — with each worker process stood in for by a
// goroutine that owns its own endpoint. It is how tests put a solve
// through the wire without spawning processes; it imports nothing above
// the transport, so the ug, core and application tests can all use it.
package nettest

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ug/comm"
	netcomm "repro/internal/ug/comm/net"
)

// fast overrides o's timing for loopback: tight heartbeats and retries.
func fast(o netcomm.Options) netcomm.Options {
	o.HeartbeatEvery = 20 * time.Millisecond
	o.RendezvousTimeout = 10 * time.Second
	o.RetryBase = 2 * time.Millisecond
	o.CloseTimeout = 2 * time.Second
	return o
}

// Run wires up a coordinator endpoint and `workers` worker endpoints
// exactly as the multi-process CLI path does, calls worker(rank,
// endpoint, tracer) on a goroutine per rank and coordinator(endpoint) on
// the caller's, then closes the coordinator endpoint and waits for every
// worker to hang up. coordTrace is the coordinator endpoint's tracer
// (may be nil); wOpts customizes individual worker endpoints — their
// Trace and Fault — and the worker callback receives that endpoint's
// tracer, which the worker session shares as the CLI worker path does.
func Run(t testing.TB, workers int, coordTrace *obs.Tracer, wOpts map[int]netcomm.Options,
	worker func(rank int, c comm.Comm, trace *obs.Tracer), coordinator func(c comm.Comm)) {
	t.Helper()
	ln, err := netcomm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for rank := 1; rank <= workers; rank++ {
		wg.Add(1)
		go func(rank int, o netcomm.Options) {
			defer wg.Done()
			wc, err := netcomm.Dial(ln.Addr(), rank, o)
			if err != nil {
				t.Errorf("worker %d dial: %v", rank, err)
				return
			}
			defer wc.Close()
			worker(rank, wc, o.Trace)
		}(rank, fast(wOpts[rank]))
	}
	c, err := ln.Rendezvous(workers+1, fast(netcomm.Options{Trace: coordTrace}))
	if err != nil {
		t.Fatal(err)
	}
	coordinator(c)
	_ = c.Close()
	wg.Wait()
}
