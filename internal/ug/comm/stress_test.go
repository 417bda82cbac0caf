package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// closableComm is what the stress harness needs: the Comm protocol
// plus the shutdown hook both concrete communicators provide.
type closableComm interface {
	Comm
	Close()
}

// TestCommStress hammers each communicator with many concurrent
// senders and competing receivers per rank — both blocking Recv and
// polling TryRecv — then shuts down via Close while receivers are
// still blocked. It is designed to run under -race: any regression in
// the mailbox's lock discipline (unsynchronized queue access, missed
// wakeup, signal-vs-broadcast mistakes on close) shows up either as a
// race report, a lost/duplicated message count, or a hang caught by
// the deadline below.
func TestCommStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(size int) closableComm
	}{
		{"ChannelComm", func(size int) closableComm { return NewChannelComm(size) }},
	} {
		t.Run(tc.name, func(t *testing.T) { stressComm(t, tc.mk) })
	}
}

func stressComm(t *testing.T, mk func(size int) closableComm) {
	const (
		ranks     = 4
		senders   = 8
		perSender = 250 // messages from each sender to each rank
	)
	wantCount := int64(senders * perSender)
	var wantSum int64
	for i := 0; i < perSender; i++ {
		wantSum += int64(i % 251)
	}
	wantSum *= senders

	c := mk(ranks)
	var (
		gotCount [ranks]atomic.Int64
		gotSum   [ranks]atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)

	// Two blocking receivers compete on every rank; they unwind on the
	// synthesized termination message Close produces.
	for rank := 0; rank < ranks; rank++ {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for {
					m := c.Recv(rank)
					if m.Tag == TagTermination && m.From == -1 {
						return
					}
					gotCount[rank].Add(1)
					gotSum[rank].Add(int64(m.Payload[0]))
				}
			}(rank)
		}
		// One polling receiver mixes TryRecv into the same contention.
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for !stop.Load() {
				m, ok := c.TryRecv(rank)
				if !ok {
					runtime.Gosched()
					continue
				}
				if m.Tag == TagTermination && m.From == -1 {
					return
				}
				gotCount[rank].Add(1)
				gotSum[rank].Add(int64(m.Payload[0]))
			}
		}(rank)
	}

	var sendWG sync.WaitGroup
	for s := 0; s < senders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for i := 0; i < perSender; i++ {
				for rank := 0; rank < ranks; rank++ {
					c.Send(rank, Message{From: s, Tag: TagNode, Payload: []byte{byte(i % 251)}})
				}
			}
		}(s)
	}
	sendWG.Wait()

	// Every message was sent; wait for the receivers to drain them all,
	// with a deadline so a missed wakeup fails instead of hanging.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for rank := 0; rank < ranks; rank++ {
			if gotCount[rank].Load() < wantCount {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for rank := 0; rank < ranks; rank++ {
				t.Errorf("rank %d: received %d of %d messages before deadline",
					rank, gotCount[rank].Load(), wantCount)
			}
			t.Fatal("receivers did not drain the mailboxes (lost wakeup or lost message)")
		}
		runtime.Gosched()
	}

	// Shut down while the blocking receivers sit in Recv on empty
	// queues: Close must wake all of them.
	c.Close()
	stop.Store(true)

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("receivers did not unwind after Close (broadcast missing?)")
	}

	for rank := 0; rank < ranks; rank++ {
		if got := gotCount[rank].Load(); got != wantCount {
			t.Errorf("rank %d: got %d messages, want %d", rank, got, wantCount)
		}
		if got := gotSum[rank].Load(); got != wantSum {
			t.Errorf("rank %d: payload checksum %d, want %d", rank, got, wantSum)
		}
	}
}

// TestCloseSemantics pins down the shutdown contract: pending messages
// are still drained after Close, sends after Close are dropped, and a
// receiver blocked on an empty mailbox wakes with the synthesized
// termination message.
func TestCloseSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(size int) closableComm
	}{
		{"ChannelComm", func(size int) closableComm { return NewChannelComm(size) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk(2)
			c.Send(1, Message{From: 0, Tag: TagStatus})
			c.Close()

			// Queued before Close: still delivered.
			if m := c.Recv(1); m.Tag != TagStatus || m.From != 0 {
				t.Fatalf("pre-close message lost: got %+v", m)
			}
			// Drained and closed: synthesized termination.
			if m := c.Recv(1); m.Tag != TagTermination || m.From != -1 {
				t.Fatalf("want synthesized termination, got %+v", m)
			}
			// Sends after Close are dropped.
			c.Send(1, Message{From: 0, Tag: TagNode})
			if m, ok := c.TryRecv(1); ok {
				t.Fatalf("send after Close should be dropped, got %+v", m)
			}

			// A receiver blocked on an empty mailbox must wake on Close.
			c2 := tc.mk(1)
			woke := make(chan Message, 1)
			go func() { woke <- c2.Recv(0) }()
			time.Sleep(10 * time.Millisecond) // let it block in Recv
			c2.Close()
			select {
			case m := <-woke:
				if m.Tag != TagTermination || m.From != -1 {
					t.Fatalf("blocked receiver woke with %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("blocked receiver not released by Close")
			}
		})
	}
}
