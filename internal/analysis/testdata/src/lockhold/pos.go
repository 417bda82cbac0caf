// Package lockhold holds positive (pos.go) and negative (neg.go)
// fixtures for the lockhold analyzer's intraprocedural rules.
package lockhold

import (
	"fmt"
	"os"
	"sync"
	"time"
)

type box struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []int
}

func sendWhileLocked(b *box, ch chan int) {
	b.mu.Lock()
	ch <- 1 // WANT lockhold
	b.mu.Unlock()
}

func recvWhileLocked(b *box, ch chan int) int {
	b.mu.Lock()
	v := <-ch // WANT lockhold
	b.mu.Unlock()
	return v
}

func sleepWhileDeferLocked(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // WANT lockhold
}

func ioWhileLocked(b *box, path string) {
	b.mu.Lock()
	_, _ = os.Create(path) // WANT lockhold
	b.mu.Unlock()
}

func printWhileLocked(b *box) {
	b.mu.Lock()
	fmt.Println("debugging") // WANT lockhold
	b.mu.Unlock()
}

func selectWhileLocked(b *box, ch chan int) {
	b.mu.Lock()
	select { // polls: the default arm means it never parks
	case <-ch:
	default:
	}
	b.mu.Unlock()
}

func sendInNestedBlock(b *box, ch chan int, flag bool) {
	b.mu.Lock()
	if flag {
		ch <- 2 // WANT lockhold
	}
	b.mu.Unlock()
}

func waitWithoutLoop(b *box) {
	b.cond.L.Lock()
	b.cond.Wait() // WANT lockhold
	b.cond.L.Unlock()
}

type embedded struct {
	sync.Mutex
	n int
}

func embeddedMutex(e *embedded, ch chan int) {
	e.Lock()
	ch <- e.n // WANT lockhold
	e.Unlock()
}

// writeInIfInit hides the blocking call in an if-init clause, which a
// scan of the condition alone never sees.
func writeInIfInit(b *box, path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := os.WriteFile(path, nil, 0o644); err != nil { // WANT lockhold
		return err
	}
	return nil
}
