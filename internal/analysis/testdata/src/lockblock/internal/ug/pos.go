// Package ug holds positive (pos.go) and negative (neg.go) fixtures for
// lockhold's interprocedural rules. The directory nests under
// internal/ug so the package path passes the analyzer's Applies filter.
package ug

import "sync"

type pool struct {
	mu    sync.Mutex
	items []int
}

// waitForItem blocks on a channel receive: its summary gets MayBlock.
func waitForItem(ch chan int) int { return <-ch }

// relay blocks only transitively, through waitForItem.
func relay(ch chan int) int { return waitForItem(ch) }

func takeLocked(p *pool, ch chan int) int {
	p.mu.Lock()
	v := waitForItem(ch) // WANT lockhold
	p.mu.Unlock()
	return v
}

func takeDeepLocked(p *pool, ch chan int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return relay(ch) // WANT lockhold
}

// size re-acquires p.mu: calling it with the lock held self-deadlocks.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

func drainLocked(p *pool) int {
	p.mu.Lock()
	n := p.size() // WANT lockhold
	p.mu.Unlock()
	return n
}
