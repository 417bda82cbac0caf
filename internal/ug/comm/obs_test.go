package comm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestMailboxGaugeTracksQueueLength pins the gauge contract
// deterministically: after every single-threaded put/get the gauge
// equals the actual queue length, and the high-watermark equals the
// deepest the queue ever got.
func TestMailboxGaugeTracksQueueLength(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mk    func(size int) closableComm
		boxes func(c closableComm) []*Mailbox
	}{
		{"ChannelComm", func(size int) closableComm { return NewChannelComm(size) },
			func(c closableComm) []*Mailbox { return c.(*ChannelComm).boxes }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := tc.mk(2)
			if ic, ok := c.(interface{ Instrument(*obs.Registry) }); !ok {
				t.Fatal("communicator does not support Instrument")
			} else {
				ic.Instrument(reg)
			}
			g := reg.Gauge("comm.mailbox.depth[1]")
			boxes := tc.boxes(c)

			check := func(step string) {
				t.Helper()
				boxes[1].mu.Lock()
				actual := int64(len(boxes[1].queue))
				boxes[1].mu.Unlock()
				if g.Value() != actual {
					t.Fatalf("%s: gauge %d != queue length %d", step, g.Value(), actual)
				}
			}

			const n = 7
			for i := 0; i < n; i++ {
				c.Send(1, Message{From: 0, Tag: TagNode, Payload: []byte{byte(i)}})
				check(fmt.Sprintf("after send %d", i))
			}
			if hw := g.HighWater(); hw != n {
				t.Fatalf("high watermark %d, want %d", hw, n)
			}
			for i := 0; i < 3; i++ {
				if _, ok := c.TryRecv(1); !ok {
					t.Fatal("TryRecv lost a message")
				}
				check(fmt.Sprintf("after tryRecv %d", i))
			}
			for i := 0; i < 4; i++ {
				c.Recv(1)
				check(fmt.Sprintf("after recv %d", i))
			}
			if g.Value() != 0 {
				t.Fatalf("drained queue but gauge is %d", g.Value())
			}
			if hw := g.HighWater(); hw != n {
				t.Fatalf("high watermark moved after drain: %d", hw)
			}
		})
	}
}

// TestMailboxGaugeUnderStress runs the concurrent hammer from the
// stress suite against instrumented communicators (with -race via
// scripts/check.sh): when the dust settles every gauge must read
// exactly the remaining queue length (zero) and the high-watermark
// must be plausible — at least 1 and at most the total sent per rank.
func TestMailboxGaugeUnderStress(t *testing.T) {
	const (
		ranks     = 3
		senders   = 6
		perSender = 300
	)
	for _, tc := range []struct {
		name string
		mk   func(size int) closableComm
	}{
		{"ChannelComm", func(size int) closableComm { return NewChannelComm(size) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := tc.mk(ranks)
			c.(interface{ Instrument(*obs.Registry) }).Instrument(reg)

			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSender; i++ {
						for rank := 0; rank < ranks; rank++ {
							c.Send(rank, Message{From: s, Tag: TagNode, Payload: []byte{1}})
						}
					}
				}(s)
			}
			// Concurrent drainers: one blocking receiver per rank.
			var rwg sync.WaitGroup
			for rank := 0; rank < ranks; rank++ {
				rwg.Add(1)
				go func(rank int) {
					defer rwg.Done()
					for got := 0; got < senders*perSender; got++ {
						m := c.Recv(rank)
						if m.Tag == TagTermination && m.From == -1 {
							t.Errorf("rank %d: premature close after %d messages", rank, got)
							return
						}
					}
				}(rank)
			}
			wg.Wait()
			rwg.Wait()

			for rank := 0; rank < ranks; rank++ {
				g := reg.Gauge(fmt.Sprintf("comm.mailbox.depth[%d]", rank))
				if g.Value() != 0 {
					t.Errorf("rank %d: drained but gauge reads %d", rank, g.Value())
				}
				if hw := g.HighWater(); hw < 1 || hw > senders*perSender {
					t.Errorf("rank %d: high watermark %d out of [1, %d]", rank, hw, senders*perSender)
				}
			}
		})
	}
}
