// Package ug holds fixtures for lockhold on the may-held lattice:
// blocking channel and network operations reached while a mutex may be
// held. The directory nests under internal/ug so the package path
// passes the analyzer's Applies filter.
package ug

import (
	"net"
	"sync"
)

type hub struct {
	mu sync.Mutex
	ch chan int
}

// condSend takes the lock on only one path, a shape a purely linear
// scan cannot see: the send can block while holding mu.
func condSend(h *hub, urgent bool) {
	if urgent {
		h.mu.Lock()
	}
	h.ch <- 1 // WANT lockhold
	if urgent {
		h.mu.Unlock()
	}
}

// condRecv parks on a receive with the lock conditionally held; the
// deferred unlock never runs until the receive completes.
func condRecv(h *hub, urgent bool) int {
	if urgent {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return <-h.ch // WANT lockhold
}

// tryHeld: TryLock acquires on only some executions, so the send runs
// with the lock sometimes held.
func tryHeld(h *hub) {
	if h.mu.TryLock() {
		defer h.mu.Unlock()
	}
	h.ch <- 1 // WANT lockhold
}

// netWriteHeld blocks on the network inside the critical section:
// remote backpressure extends the hold for every other goroutine.
func netWriteHeld(mu *sync.Mutex, conn net.Conn, buf []byte) {
	mu.Lock()
	defer mu.Unlock()
	_, _ = conn.Write(buf) // WANT lockhold
}
