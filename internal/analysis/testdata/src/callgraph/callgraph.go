// Package callgraph exercises the module call-graph builder: mutual
// recursion (fixed-point convergence), method values, interface
// dispatch, goroutine spawns, and summary propagation. Assertions live
// in callgraph_test.go; no analyzer runs over this fixture.
package callgraph

import "sync"

// Blocker is dispatched through an interface: a call through it must
// fan out to every module implementation.
type Blocker interface {
	Block(ch chan int)
}

// Real blocks on the channel.
type Real struct{}

// Block receives.
func (Real) Block(ch chan int) { <-ch }

// Fake never blocks.
type Fake struct{}

// Block is a no-op.
func (Fake) Block(ch chan int) {}

// dispatch may reach Real.Block or Fake.Block; the conservative answer
// is MayBlock.
func dispatch(b Blocker, ch chan int) { b.Block(ch) }

// pingA and pingB are mutually recursive with a channel send at the
// base case: the summary iteration must converge, not recurse forever.
func pingA(n int, ch chan int) {
	if n == 0 {
		ch <- 1
		return
	}
	pingB(n-1, ch)
}

func pingB(n int, ch chan int) { pingA(n, ch) }

// methodValue stores a method value without calling it: a conservative
// reference edge to Real.Block.
func methodValue(r Real) func(chan int) {
	f := r.Block
	return f
}

// spawner launches pingA on a goroutine: not MayBlock, because
// `go f()` never blocks the spawner.
func spawner(ch chan int) {
	go pingA(3, ch)
}

// spawnAndCall launches pingA and also calls it synchronously: the
// launch adds no edge, the synchronous call keeps its own.
func spawnAndCall(ch chan int) {
	go pingA(3, ch)
	pingA(3, ch)
}

// pure touches nothing interesting.
func pure(n int) int { return n + 1 }

// locker acquires its receiver's mutex; lockerCaller inherits the
// acquisition transitively.
type locker struct {
	mu sync.Mutex
	n  int
}

func (l *locker) bump() {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

func lockerCaller(l *locker) { l.bump() }
