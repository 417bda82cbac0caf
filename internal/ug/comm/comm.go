// Package comm provides the message-passing abstraction underneath the
// UG framework. UG's design point is that the coordination protocol is
// written once against an abstract communicator and instantiated with a
// concrete parallelization library — Pthreads/C++11 threads for
// FiberSCIP-style shared memory, MPI for ParaSCIP-style distributed
// memory. Here ChannelComm plays the shared-memory role and the comm/net
// subpackage provides NetComm, the distributed-memory role: a TCP
// transport where coordinator and workers run as separate OS processes.
// Payloads are serialized by the caller (internal/ug encodes every
// subproblem, solution and status report to bytes before Send), so all
// transferred state survives a solver-independent wire format under
// either communicator.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Tag labels a message with its protocol meaning; the set mirrors the
// Supervisor/Worker algorithm in the paper (solutionFound, subproblem,
// status, terminated, startCollecting, stopCollecting, termination) plus
// the racing ramp-up extensions and the transport-failure notification
// distributed backends synthesize.
type Tag int8

// Protocol tags.
const (
	TagSubproblem Tag = iota
	TagRacing
	TagSolution
	TagStatus
	TagNode
	TagTerminated
	TagStartCollect
	TagStopCollect
	TagExtractAll
	TagStop
	TagTermination
	// TagPeerDown is synthesized locally by a distributed transport
	// (comm/net) when a remote rank disconnects without a graceful
	// goodbye: From names the lost rank. It never crosses the wire.
	TagPeerDown
)

// String names the protocol tag for traces and debugging.
func (t Tag) String() string {
	names := [...]string{"subproblem", "racing", "solution", "status", "node",
		"terminated", "startCollect", "stopCollect", "extractAll", "stop", "termination",
		"peerDown"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("tag(%d)", int(t))
}

// Message is one protocol message. Payload is an opaque byte slice whose
// interpretation depends on Tag.
type Message struct {
	From    int
	Tag     Tag
	Payload []byte
}

// Comm is the communicator: rank 0 is the LoadCoordinator, ranks 1..Size-1
// are ParaSolvers.
type Comm interface {
	// Size returns the number of ranks including the coordinator.
	Size() int
	// Send delivers m to rank `to` (never blocks).
	Send(to int, m Message)
	// Recv blocks until a message addressed to rank arrives.
	Recv(rank int) Message
	// TryRecv returns a pending message for rank without blocking.
	TryRecv(rank int) (Message, bool)
}

// Mailbox is an unbounded FIFO with blocking receive — the delivery
// queue behind every communicator in this package and the per-peer
// outgoing queues of the comm/net transport. After Close, Put drops its
// message and receivers drain the remaining queue before Get reports
// ok=false. Exported so transport implementations in subpackages reuse
// the same lock discipline the -race stress suite pins down.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	// depth mirrors len(queue) as an obs gauge (with high-watermark).
	// Nil when the communicator is not instrumented; Gauge ops on nil
	// are free no-ops, so Put/Get pay only a nil check by default. The
	// gauge is updated while mb.mu is held, so its value is exactly
	// len(queue) at every quiescent point.
	depth *obs.Gauge
}

// NewMailbox creates an empty open mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// Put appends m to the queue and wakes one receiver. After Close the
// message is dropped.
func (mb *Mailbox) Put(m Message) {
	mb.mu.Lock()
	if !mb.closed {
		mb.queue = append(mb.queue, m)
		mb.depth.Set(int64(len(mb.queue)))
		mb.cond.Signal()
	}
	mb.mu.Unlock()
}

// Get blocks until a message is available or the mailbox is closed and
// drained; ok=false signals the latter.
func (mb *Mailbox) Get() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return Message{}, false
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	mb.depth.Set(int64(len(mb.queue)))
	return m, true
}

// TryGet returns the head of the queue without blocking.
func (mb *Mailbox) TryGet() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if len(mb.queue) == 0 {
		return Message{}, false
	}
	m := mb.queue[0]
	mb.queue = mb.queue[1:]
	mb.depth.Set(int64(len(mb.queue)))
	return m, true
}

// Close shuts the mailbox: later Puts are dropped and receivers drain
// the remaining queue before Get reports ok=false.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Closed reports whether Close has been called (messages queued before
// the close may still be pending).
func (mb *Mailbox) Closed() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.closed
}

// Depth returns the current queue length.
func (mb *Mailbox) Depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

// SetDepthGauge attaches (or detaches, with nil) the obs gauge mirroring
// the queue depth. Attaching is synchronized with concurrent Put/Get;
// the gauge starts tracking from the current depth.
func (mb *Mailbox) SetDepthGauge(g *obs.Gauge) {
	mb.mu.Lock()
	mb.depth = g
	mb.depth.Set(int64(len(mb.queue)))
	mb.mu.Unlock()
}

// ChannelComm is the shared-memory communicator: messages move by
// reference between goroutines, the analogue of ug's Pthreads/C++11
// backends. One mailbox per rank gives blocking Recv with a synthesized
// termination message after close, non-blocking TryRecv, and per-rank
// depth instrumentation.
type ChannelComm struct {
	boxes []*Mailbox
}

// NewChannelComm creates a communicator with size ranks.
func NewChannelComm(size int) *ChannelComm {
	c := &ChannelComm{boxes: make([]*Mailbox, size)}
	for i := range c.boxes {
		c.boxes[i] = NewMailbox()
	}
	return c
}

// Size implements Comm.
func (c *ChannelComm) Size() int { return len(c.boxes) }

// Send implements Comm.
func (c *ChannelComm) Send(to int, m Message) { c.boxes[to].Put(m) }

// Recv implements Comm. After Close, once the queue is drained Recv
// returns a synthesized termination message (From = -1,
// Tag = TagTermination) so blocked receivers unwind.
func (c *ChannelComm) Recv(rank int) Message {
	// Recv's contract is to block; Close closes every box, which unblocks Get.
	m, ok := c.boxes[rank].Get()
	if !ok {
		return Message{From: -1, Tag: TagTermination}
	}
	return m
}

// TryRecv implements Comm.
func (c *ChannelComm) TryRecv(rank int) (Message, bool) { return c.boxes[rank].TryGet() }

// Close shuts every mailbox: later sends are dropped and receivers
// blocked in Recv wake with a synthesized termination message once
// their queue drains.
func (c *ChannelComm) Close() {
	for _, mb := range c.boxes {
		mb.Close()
	}
}

// Closed reports whether Close has been called. The coordinator polls it
// to exit its event loop cleanly when the transport is shut down under a
// running coordination loop (tests, process teardown).
func (c *ChannelComm) Closed() bool { return len(c.boxes) > 0 && c.boxes[0].Closed() }

// Instrument registers per-rank mailbox depth gauges (current depth and
// high-watermark) in reg, named "comm.mailbox.depth[rank]".
func (c *ChannelComm) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for rank, mb := range c.boxes {
		mb.SetDepthGauge(reg.Gauge(fmt.Sprintf("comm.mailbox.depth[%d]", rank)))
	}
}
