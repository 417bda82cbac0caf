package ug

import "net"

// uncondSend holds the lock on every path: the unconditional hold is
// reported exactly like the conditional ones in pos.go.
func uncondSend(h *hub) {
	h.mu.Lock()
	h.ch <- 1 // WANT lockhold
	h.mu.Unlock()
}

// pollSend never parks: the select has a default arm.
func pollSend(h *hub, urgent bool) {
	if urgent {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	select {
	case h.ch <- 1:
	default:
	}
}

// sendAfter releases inside the branch, so the lock is never held at
// the send.
func sendAfter(h *hub, urgent bool) {
	if urgent {
		h.mu.Lock()
		h.mu.Unlock()
	}
	h.ch <- 1
}

// readUnlocked does its network IO outside any critical section; a
// missing deadline is not lockhold's concern.
func readUnlocked(h *hub, conn net.Conn, buf []byte) {
	h.mu.Lock()
	h.mu.Unlock()
	_, _ = conn.Read(buf)
}
