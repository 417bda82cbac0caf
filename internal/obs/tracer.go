package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Sink receives completed events from a Tracer. Implementations must be
// safe for use by a single Tracer (which serializes Emit calls); they do
// not need their own locking.
type Sink interface {
	// Emit records one event. The event is complete: Seq/Tick/Wall are
	// already assigned by the tracer.
	Emit(ev Event)
	// Close flushes and releases the sink. A tracer must not be used
	// after its sink is closed.
	Close() error
}

// Tracer assigns sequence numbers and logical timestamps to events and
// hands them to its sink. The nil *Tracer is the disabled tracer: every
// method on it is an allocation-free no-op, so instrumented structs hold
// a plain *Tracer field that defaults to "off".
//
// Concurrency: Emit is safe from any goroutine (the coordinator and all
// ParaSolvers share one tracer); SetTick is called by the single writer
// that owns the logical clock (the coordinator loop, or the sequential
// solver). Events emitted concurrently by different ranks interleave in
// Seq order under one mutex, so a trace is always totally ordered even
// when the emission order between ranks is scheduling-dependent.
type Tracer struct {
	mu    sync.Mutex
	sink  Sink
	seq   int64
	tick  atomic.Int64
	start time.Time

	// Causal mode (distributed runs only; see EnableCausal): every Emit
	// advances a Lamport clock and stamps the event with it plus the
	// endpoint's rank, and the transport weaves per-process clocks into
	// one happens-before order by piggybacking the clock on every data
	// frame (ClockSend on the sender, ClockRecv on the receiver). All
	// three fields are guarded by mu.
	causal bool
	orig   int
	clock  int64
}

// NewTracer creates a tracer writing to sink. A nil sink yields the
// disabled (nil) tracer.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, start: time.Now()}
}

// Enabled reports whether events are being recorded. Callers should
// guard expensive payload computation (anything beyond filling an Event
// struct) behind it.
func (t *Tracer) Enabled() bool { return t != nil }

// SetTick advances the logical clock. Ticks must be non-decreasing; the
// logical clock is owned by exactly one goroutine (coordinator loop or
// sequential solver), everything else only reads it through Emit.
func (t *Tracer) SetTick(tick int64) {
	if t == nil {
		return
	}
	t.tick.Store(tick)
}

// Tick returns the current logical time.
func (t *Tracer) Tick() int64 {
	if t == nil {
		return 0
	}
	return t.tick.Load()
}

// Emit stamps ev with the next sequence number, the current logical
// tick, and the wall-clock offset, then forwards it to the sink. On the
// nil tracer this is a no-op that performs no allocation, so call sites
// may construct the Event argument unconditionally.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.seq
	t.seq++
	ev.Tick = t.tick.Load()
	ev.Wall = time.Since(t.start).Seconds()
	if t.causal {
		t.clock++
		ev.Clock = t.clock
		ev.Orig = t.orig
	}
	t.sink.Emit(ev) //lint:ignore lockhold Tracer structurally satisfies Sink, but NewTracer never wraps one; real sinks append to memory or a bufio buffer and take no tracer lock
	t.mu.Unlock()
}

// EnableCausal switches the tracer into distributed (causal) mode: every
// subsequent event carries a Lamport clock and origin = the endpoint's
// comm rank. The distributed transport calls this once per endpoint when
// the connection is established; single-process runs never enable it, so
// their traces stay bit-identical to pre-causal ones (Clock/Orig encode
// only when set). Safe on the nil tracer.
func (t *Tracer) EnableCausal(origin int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.causal = true
	t.orig = origin
	t.mu.Unlock()
}

// ClockSend advances the Lamport clock for an outgoing message and
// returns the value to piggyback on the wire frame. Send events on the
// wire are clock events: any event the sender emitted before the Send
// call has a strictly smaller clock. Returns 0 when the tracer is nil or
// not in causal mode (the frame then carries no causal information).
func (t *Tracer) ClockSend() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.causal {
		return 0
	}
	t.clock++
	return t.clock
}

// ClockRecv merges a remote Lamport clock carried by an incoming frame:
// the local clock becomes max(local, remote), so every event emitted
// after the receive is causally ordered after every event the sender
// emitted before the send. Safe on the nil tracer; remote values ≤ 0
// (non-causal peers) are ignored.
func (t *Tracer) ClockRecv(remote int64) {
	if t == nil || remote <= 0 {
		return
	}
	t.mu.Lock()
	if remote > t.clock {
		t.clock = remote
	}
	t.mu.Unlock()
}

// Close flushes and closes the underlying sink.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink.Close() //lint:ignore lockhold sinks close buffered writers or files, never a Tracer; t.mu is unreachable from any real Sink.Close
}

// MemSink buffers events in memory; the in-process test sink.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *MemSink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Close implements Sink (no resources to release).
func (m *MemSink) Close() error { return nil }

// Events returns a copy of the recorded events.
func (m *MemSink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Filter returns the recorded events of one kind.
func (m *MemSink) Filter(kind string) []Event {
	var out []Event
	for _, ev := range m.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// WriterSink streams events as JSONL to an io.Writer through a reused
// encode buffer.
type WriterSink struct {
	w     *bufio.Writer
	c     io.Closer // optional; closed after flush
	buf   []byte
	fails int
}

// NewWriterSink wraps w; if w is also an io.Closer it is closed by Close.
func NewWriterSink(w io.Writer) *WriterSink {
	s := &WriterSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// NewFileSink creates (truncating) a JSONL trace file at path.
func NewFileSink(path string) (*WriterSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace file: %w", err)
	}
	return NewWriterSink(f), nil
}

// Emit implements Sink. Write errors are deferred to Close: tracing is
// best-effort during the run, but a truncated trace must not pass
// silently at the end.
func (s *WriterSink) Emit(ev Event) {
	s.buf = ev.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		s.fails++
	}
}

// Close flushes the stream and reports any write failure seen en route.
func (s *WriterSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && s.fails > 0 {
		err = fmt.Errorf("obs: %d trace write(s) failed", s.fails)
	}
	return err
}
