package obs

import (
	"sync"
	"sync/atomic"
)

// Bus is the live half of the telemetry plane: a Sink that tees every
// event into the authoritative downstream sink (the JSONL file sink —
// its bytes stay identical whether or not a bus sits in front of it)
// and fans a copy out to any number of live subscribers (SSE streams,
// the stall watchdog, future ugserve clients).
//
// The contract that makes it safe to put in front of the solve path:
// Emit never blocks and never allocates per event in steady state. Each
// subscriber owns a bounded ring buffer; when a subscriber falls behind,
// the bus drops that subscriber's *oldest* buffered event and counts the
// loss (per-subscriber, plus the aggregate `obs.bus.dropped` registry
// counter) rather than ever stalling the emitter. Live views may have
// holes under backpressure; the file trace never does — which is why the
// file sink stays the source of truth for determinism checks and merges.
type Bus struct {
	sink     Sink     // optional downstream (file) sink; may be nil
	dropCtr  *Counter // the obs.bus.dropped registry counter (nil-safe)
	subGauge *Gauge   // the obs.bus.subscribers registry gauge (nil-safe)

	mu     sync.Mutex // guards subscription changes, not the fan-out
	subs   map[int]*subscriber
	nextID int
	closed bool

	// fan is the copy-on-write subscriber snapshot Emit/Publish iterate:
	// subscription changes rebuild it under mu, the emit path reads it
	// with a single atomic load and holds no bus lock at all while
	// fanning out (push only ever takes the subscriber's own short
	// ring lock). A push may race a concurrent unsubscribe through a
	// stale snapshot; the subscriber's closed flag makes that a no-op.
	fan     atomic.Pointer[[]*subscriber]
	dropped atomic.Int64 // total events dropped across all subscribers
}

// busRingCap is each subscriber's ring-buffer capacity. A busy solve
// emits bursts of dispatch/status events far faster than a network
// client drains them; 1024 events of slack absorbs the burst without
// letting an abandoned subscriber hold the run's history alive.
const busRingCap = 1024

// NewBus creates a bus teeing into sink (may be nil for a live-only bus
// with no trace file) and counting drops into reg (may be nil).
func NewBus(sink Sink, reg *Registry) *Bus {
	return &Bus{
		sink:     sink,
		dropCtr:  reg.Counter("obs.bus.dropped"),
		subGauge: reg.Gauge("obs.bus.subscribers"),
		subs:     map[int]*subscriber{},
	}
}

// subscriber is one bounded fan-out lane. The bus appends into the ring
// under sub.mu (dropping the oldest event when full); a dedicated pump
// goroutine moves events ring → out at whatever pace the consumer
// sustains, so a stalled consumer blocks only its own pump.
type subscriber struct {
	kinds map[string]bool // nil = every kind

	mu     sync.Mutex
	ring   [busRingCap]Event
	start  int // index of oldest buffered event
	n      int // buffered event count
	closed bool

	dropped atomic.Int64

	notify chan struct{} // cap 1: "ring went non-empty" edge
	done   chan struct{} // closed by Unsubscribe / Bus.Close
	stop   sync.Once
	out    chan Event
}

// Emit implements Sink: forward to the downstream sink first (so the
// trace file sees exactly the stream it would without a bus), then copy
// into every matching subscriber ring. Called under the tracer's lock,
// which serializes tracer-borne events into both the sink and the rings
// in one total order; the fan-out itself takes no bus-level lock.
//
//ugo:coldpath fan-out reads an atomic subscriber snapshot and copies into fixed-size preallocated rings; drop-oldest keeps it alloc-free and non-blocking even with stalled subscribers
func (b *Bus) Emit(ev Event) {
	if b.sink != nil {
		b.sink.Emit(ev)
	}
	if subs := b.fan.Load(); subs != nil {
		for _, sub := range *subs {
			sub.push(ev, b)
		}
	}
}

// push appends ev to the subscriber's ring if the kind matches, dropping
// the oldest buffered event when the ring is full. The notify send is
// select-default on a 1-slot channel after the ring lock is released, so
// push can never block its caller.
func (s *subscriber) push(ev Event, b *Bus) {
	if s.kinds != nil && !s.kinds[ev.Kind] {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		s.dropped.Add(1)
		b.dropped.Add(1)
		b.dropCtr.Inc()
	}
	s.ring[(s.start+s.n)%len(s.ring)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default: // pump already has a wakeup pending
	}
}

// refan rebuilds the emit path's subscriber snapshot and mirrors the
// live fan-out width into the obs.bus.subscribers gauge (so /metrics
// shows how many SSE/watchdog/recorder lanes are attached).
// Callers hold b.mu — the one lock every subscription change takes.
func (b *Bus) refan() {
	subs := make([]*subscriber, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.fan.Store(&subs)
	b.subGauge.Set(int64(len(subs)))
}

// Subscribe registers a live event consumer. With no kinds every event
// is delivered; otherwise only events whose Kind is listed. It returns
// the delivery channel and an unsubscribe func; the channel is closed
// once the subscription ends (unsubscribe or bus close), after which the
// subscriber's buffered backlog is discarded. Unsubscribe is idempotent
// and safe to call while a receive is blocked.
func (b *Bus) Subscribe(kinds ...string) (<-chan Event, func()) {
	sub := &subscriber{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		out:    make(chan Event),
	}
	if len(kinds) > 0 {
		sub.kinds = make(map[string]bool, len(kinds))
		for _, k := range kinds {
			sub.kinds[k] = true
		}
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(sub.out)
		return sub.out, func() {}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = sub
	b.refan()
	b.mu.Unlock()

	go sub.pump()

	cancel := func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.refan()
		b.mu.Unlock()
		sub.close()
	}
	return sub.out, cancel
}

// pump drains the ring into the out channel at consumer pace.
func (s *subscriber) pump() {
	for {
		s.mu.Lock()
		if s.n == 0 {
			s.mu.Unlock()
			select {
			case <-s.notify:
				continue
			case <-s.done:
				close(s.out)
				return
			}
		}
		ev := s.ring[s.start]
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		s.mu.Unlock()
		select {
		case s.out <- ev:
		case <-s.done:
			close(s.out)
			return
		}
	}
}

// close ends the subscription: the pump exits (closing out) and later
// pushes become no-ops.
func (s *subscriber) close() {
	s.stop.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
	})
}

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Dropped returns the total number of events dropped across all
// subscribers since the bus was created. Together with the events
// actually delivered it accounts for every emission: for any single
// subscriber, delivered + dropped + still-buffered == matched emits.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Publish injects an event that did not come through a Tracer — the
// watchdog uses it when the process has no tracer, so live subscribers
// still see stall events that have no trace file to land in. The event
// reaches subscribers only, never the downstream sink (an unstamped
// event in the file would violate the dense-seq invariant).
func (b *Bus) Publish(ev Event) {
	if subs := b.fan.Load(); subs != nil {
		for _, sub := range *subs {
			sub.push(ev, b)
		}
	}
}

// Close implements Sink: it ends every subscription and closes the
// downstream sink. Emit must not be called after Close (the tracer
// guarantees this by closing its sink exactly once).
func (b *Bus) Close() error {
	b.mu.Lock()
	b.closed = true
	subs := make([]*subscriber, 0, len(b.subs))
	for id, sub := range b.subs {
		subs = append(subs, sub)
		delete(b.subs, id)
	}
	b.refan()
	b.mu.Unlock()
	for _, sub := range subs {
		sub.close()
	}
	if b.sink != nil {
		return b.sink.Close()
	}
	return nil
}
