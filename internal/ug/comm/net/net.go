package netcomm

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ug/comm"
)

// Options tunes a NetComm endpoint. The zero value selects the
// defaults given on each field.
type Options struct {
	// HeartbeatEvery is the interval between heartbeat frames to each
	// peer (default 250ms).
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many silent intervals (no frame of any kind
	// received) declare a peer dead (default 8).
	HeartbeatMiss int
	// RendezvousTimeout bounds the whole rendezvous: the coordinator's
	// wait for a full roster, and a worker's dial-retry window
	// (default 30s).
	RendezvousTimeout time.Duration
	// RetryBase is the first dial backoff (default 10ms); it doubles up
	// to retryMax. Jitter of up to half the current backoff is added
	// from a generator seeded with Seed and the rank.
	RetryBase time.Duration
	// CloseTimeout bounds the graceful drain in Close before remaining
	// connections are forced shut (default 3s).
	CloseTimeout time.Duration
	// Seed seeds the dial-retry jitter; runs with equal seeds retry on
	// the same schedule.
	Seed int64
	// Fault is the test-only fault-injection plan applied to outgoing
	// data frames; nil disables injection.
	Fault *FaultPlan
	// Trace receives comm.connect / comm.retry / comm.heartbeat /
	// comm.peerdown events (nil disables tracing). The transport also
	// switches the tracer into causal mode (obs.Tracer.EnableCausal) and
	// piggybacks its Lamport clock on every data frame, so per-process
	// traces of one distributed run can be merged into a single
	// causally-consistent timeline by obs.MergeTraces / ugtrace -merge.
	Trace *obs.Tracer
	// Metrics receives transfer-byte counters and queue-depth gauges at
	// construction time (nil disables collection).
	Metrics *obs.Registry
	// Capture, when armed, writes a post-mortem forensics bundle if a
	// transport goroutine (accept/handshake/send/recv/heartbeat) panics; the
	// panic is rethrown unchanged afterwards. Nil/disarmed is a no-op.
	Capture *obs.Capturer
}

const (
	// retryMax caps the exponential dial backoff.
	retryMax = time.Second
	// writeTimeout bounds each frame write: peer.write arms a write
	// deadline before putting the frame on the wire, so a remote that
	// stops reading cannot wedge the send or heartbeat loop forever.
	writeTimeout = 5 * time.Second
	// handshakeTimeout bounds each accepted connection's handshake (read
	// the hello, answer it). Every connection handshakes on its own
	// goroutine, so one that never sends stalls only itself.
	handshakeTimeout = 2 * time.Second
	// outboxSoftCap is the per-peer outgoing queue depth beyond which
	// the comm.net.outbox.overflow counter ticks. The queue itself stays
	// unbounded so Send never blocks or drops.
	outboxSoftCap = 4096
)

func (o Options) withDefaults() Options {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 8
	}
	if o.RendezvousTimeout <= 0 {
		o.RendezvousTimeout = 30 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = 3 * time.Second
	}
	return o
}

// RejectedError is a terminal rendezvous failure: the coordinator
// refused this endpoint (duplicate rank, version mismatch, roster
// full). Dial does not retry after one.
type RejectedError struct {
	// Reason is the coordinator's human-readable rejection reason.
	Reason string
}

// Error implements error.
func (e *RejectedError) Error() string { return "netcomm: rendezvous rejected: " + e.Reason }

// errInjected marks a FaultDisconnect-induced teardown in traces.
var errInjected = errors.New("netcomm: injected disconnect (fault plan)")

// instruments bundles the endpoint's counters so they can be swapped
// atomically by Instrument. All obs instruments are nil-safe, so the
// zero instruments value is the disabled set.
type instruments struct {
	bytesOut, bytesIn     *obs.Counter
	framesOut, framesIn   *obs.Counter
	dropped, overflow     *obs.Counter
	heartbeats, peerDowns *obs.Counter
}

// peer is one live remote rank: its connection, outgoing queue, and
// liveness bookkeeping.
type peer struct {
	rank   int
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	wmu    sync.Mutex // serializes frame writes (send loop vs heartbeats)
	out    *comm.Mailbox
	lastIn atomic.Int64 // unix nanos of the last frame received
	down   sync.Once
	stop   chan struct{} // closed on teardown; ends the heartbeat loop
	// readWindow arms a read deadline per recvLoop iteration, one
	// heartbeat interval laxer than the heartbeat-timeout rule so the
	// latter fires first and produces the richer peer-down cause.
	readWindow time.Duration
}

// write sends one frame and flushes. Frame writes from the send loop
// and the heartbeat loop interleave whole frames under wmu.
func (p *peer) write(ftype byte, body []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	//lint:ignore lockhold frame writes are serialized under wmu by design; the write deadline above bounds how long backpressure can hold it
	if err := writeFrame(p.bw, ftype, body); err != nil {
		return err
	}
	//lint:ignore lockhold flush is part of the same deadline-bounded frame write
	return p.bw.Flush()
}

// NetComm is one endpoint of the distributed-memory TCP communicator:
// rank 0 (built by Listener.Rendezvous) holds a connection per worker,
// each worker (built by Dial) holds one connection to the coordinator.
// Send enqueues to a per-peer outgoing queue serviced by a dedicated
// send loop, so it never blocks; Recv/TryRecv serve only this
// endpoint's own rank from the local mailbox. A remote rank that
// vanishes without a goodbye frame is announced locally as a
// synthesized comm.TagPeerDown message.
type NetComm struct {
	rank, size int
	opts       Options
	trace      *obs.Tracer

	inbox *comm.Mailbox

	mu    sync.Mutex
	peers map[int]*peer

	ins atomic.Pointer[instruments]

	ln        net.Listener  // coordinator only; closed by Close
	full      chan struct{} // coordinator only; closed once ranks 1..size-1 have all joined
	closing   atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

var _ comm.Comm = (*NetComm)(nil)

func newNetComm(rank, size int, opts Options) *NetComm {
	c := &NetComm{
		rank:  rank,
		size:  size,
		opts:  opts,
		trace: opts.Trace,
		inbox: comm.NewMailbox(),
		peers: map[int]*peer{},
	}
	c.ins.Store(&instruments{})
	if opts.Metrics != nil {
		c.Instrument(opts.Metrics)
	}
	return c
}

// Listener is a bound rendezvous port: create it with Listen (so the
// address, possibly with an OS-assigned port, is known), hand the
// address to the workers, then call Rendezvous to collect the roster.
type Listener struct {
	ln net.Listener
}

// Listen binds the coordinator's rendezvous address ("host:port";
// ":0" picks a free port, see Addr).
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcomm: listen %s: %w", addr, err)
	}
	return &Listener{ln: ln}, nil
}

// Addr returns the bound address in host:port form.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close releases the port without a rendezvous (error-path cleanup;
// Rendezvous hands the listener to the NetComm it returns).
func (l *Listener) Close() error { return l.ln.Close() }

// Rendezvous accepts workers until ranks 1..size-1 have all joined and
// returns the coordinator endpoint (rank 0). A hello with the wrong
// protocol version, an out-of-range rank, or an already-joined rank is
// rejected with a reason frame and does not count toward the roster.
// If the roster is incomplete when Options.RendezvousTimeout expires,
// every accepted connection is torn down and an error returned.
func (l *Listener) Rendezvous(size int, opts Options) (*NetComm, error) {
	opts = opts.withDefaults()
	// Causal stamping starts before the first connect event so every
	// coordinator-side event of a distributed run carries a clock.
	opts.Trace.EnableCausal(0)
	if size < 2 {
		_ = l.ln.Close()
		return nil, fmt.Errorf("netcomm: roster size %d < 2 (coordinator + at least one worker)", size)
	}
	c := newNetComm(0, size, opts)
	c.ln = l.ln
	c.full = make(chan struct{})
	acceptErr := make(chan error, 1)
	c.wg.Add(1)
	go c.acceptLoop(acceptErr)
	timer := time.NewTimer(opts.RendezvousTimeout)
	defer timer.Stop()
	var err error
	select {
	case <-c.full:
		return c, nil
	case err = <-acceptErr:
	case <-timer.C:
		err = os.ErrDeadlineExceeded
	}
	joined := c.peerCount()
	c.abort()
	return nil, fmt.Errorf("netcomm: rendezvous: %d of %d workers joined: %w", joined, size-1, err)
}

// acceptLoop lives as long as the coordinator endpoint: it hands every
// connection to its own handshake goroutine and exits when Close or
// abort shuts the listener, reporting the accept error on failed.
func (c *NetComm) acceptLoop(failed chan<- error) {
	defer c.wg.Done()
	defer c.opts.Capture.CapturePanic("netcomm.acceptLoop")
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			failed <- err
			return
		}
		c.wg.Add(1)
		go c.handshake(conn)
	}
}

// handshake runs the accept side of one connection under
// handshakeTimeout: read the hello, then welcome or reject it.
// Malformed handshakes are dropped silently; the dialer retries or
// times out. A welcome that cannot be written loses a peer that has
// already joined, so it is torn down like any other lost peer.
func (c *NetComm) handshake(conn net.Conn) {
	defer c.wg.Done()
	defer c.opts.Capture.CapturePanic("netcomm.handshake")
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	ft, body, err := readFrame(br)
	if err != nil || ft != frameHello {
		_ = conn.Close()
		return
	}
	rank, ver, err := decodeHello(body)
	if err != nil {
		_ = conn.Close()
		return
	}
	p := c.newPeer(rank, conn, br)
	if reason := c.join(p, ver); reason != "" {
		_ = writeFrame(conn, frameReject, appendReject(nil, reason))
		_ = conn.Close()
		return
	}
	if err := writeFrame(conn, frameWelcome, appendWelcome(nil, c.size)); err != nil {
		c.peerGone(p, fmt.Errorf("netcomm: welcome to rank %d: %w", rank, err))
		return
	}
	_ = conn.SetDeadline(time.Time{})
	c.startPeer(p)
}

// join is the handshake's one atomic step: under c.mu it checks the
// hello against the roster and, when it is admissible, registers p and
// closes c.full if p completes the roster. It returns the rejection
// reason, or "" once p holds its rank.
func (c *NetComm) join(p *peer, ver uint16) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.full:
		return "roster already complete"
	default:
	}
	switch {
	case c.closing.Load():
		return "coordinator shutting down"
	case ver != ProtocolVersion:
		return fmt.Sprintf("protocol version %d, coordinator speaks %d", ver, ProtocolVersion)
	case p.rank < 1 || p.rank >= c.size:
		return fmt.Sprintf("rank %d outside roster [1,%d]", p.rank, c.size-1)
	case c.peers[p.rank] != nil:
		return fmt.Sprintf("rank %d already joined", p.rank)
	}
	c.peers[p.rank] = p
	if len(c.peers) == c.size-1 {
		close(c.full)
	}
	return ""
}

// Dial connects a worker endpoint to the coordinator at addr,
// announcing rank (1-based). Connection failures are retried with
// exponential backoff plus seeded jitter until Options.RendezvousTimeout
// expires; an explicit rejection from the coordinator (RejectedError)
// is terminal and not retried. On success the roster size from the
// welcome frame determines Size.
func Dial(addr string, rank int, opts Options) (*NetComm, error) {
	opts = opts.withDefaults()
	if rank < 1 {
		return nil, fmt.Errorf("netcomm: worker rank must be >= 1, got %d", rank)
	}
	// Causal stamping starts before the first dial attempt so even
	// comm.retry events carry Lamport clocks and survive a trace merge.
	opts.Trace.EnableCausal(rank)
	// Jitter comes from an explicitly seeded local generator — rank
	// decorrelates workers started from the same seed.
	rng := rand.New(rand.NewSource(opts.Seed + int64(rank)*7919 + 1))
	deadline := time.Now().Add(opts.RendezvousTimeout)
	backoff := opts.RetryBase
	attempt := 0
	for {
		c, err := dialOnce(addr, rank, opts, deadline)
		if err == nil {
			return c, nil
		}
		var rej *RejectedError
		if errors.As(err, &rej) {
			return nil, err
		}
		attempt++
		opts.Trace.Emit(obs.Event{Kind: obs.KindCommRetry, Rank: rank, Open: attempt, Str: err.Error()})
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("netcomm: dial %s as rank %d: gave up after %d attempts: %w",
				addr, rank, attempt, err)
		}
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		if remaining := time.Until(deadline); sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		backoff *= 2
		backoff = min(backoff, retryMax)
	}
}

// dialOnce makes a single connection + handshake attempt.
func dialOnce(addr string, rank int, opts Options, deadline time.Time) (*NetComm, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(deadline)
	if err := writeFrame(conn, frameHello, appendHello(nil, rank)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	ft, body, err := readFrame(br)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	switch ft {
	case frameWelcome:
		size, err := decodeWelcome(body)
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		if rank >= size {
			_ = conn.Close()
			return nil, &RejectedError{Reason: fmt.Sprintf("rank %d outside welcomed roster size %d", rank, size)}
		}
		_ = conn.SetDeadline(time.Time{})
		c := newNetComm(rank, size, opts)
		p := c.newPeer(0, conn, br)
		c.peers[0] = p
		c.startPeer(p)
		return c, nil
	case frameReject:
		reason, derr := decodeReject(body)
		if derr != nil {
			reason = "malformed reject frame: " + derr.Error()
		}
		_ = conn.Close()
		return nil, &RejectedError{Reason: reason}
	default:
		_ = conn.Close()
		return nil, fmt.Errorf("netcomm: unexpected frame type %d during handshake", ft)
	}
}

// newPeer wraps a connection whose hello has been read (coordinator) or
// welcomed (worker); br holds whatever the handshake buffered.
func (c *NetComm) newPeer(rank int, conn net.Conn, br *bufio.Reader) *peer {
	p := &peer{
		rank:       rank,
		conn:       conn,
		br:         br,
		bw:         bufio.NewWriterSize(conn, 32<<10),
		out:        comm.NewMailbox(),
		stop:       make(chan struct{}),
		readWindow: time.Duration(c.opts.HeartbeatMiss+1) * c.opts.HeartbeatEvery,
	}
	p.lastIn.Store(time.Now().UnixNano())
	return p
}

// startPeer announces a registered, welcomed peer and starts its loops.
func (c *NetComm) startPeer(p *peer) {
	c.trace.Emit(obs.Event{Kind: obs.KindCommConnect, Rank: p.rank, Open: c.size,
		Str: p.conn.RemoteAddr().String()})
	c.wg.Add(3)
	go c.sendLoop(p)
	go c.recvLoop(p)
	go c.heartbeatLoop(p)
}

func (c *NetComm) peerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

func (c *NetComm) hasPeer(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[rank] != nil
}

// snapshotPeers returns the live peers in ascending rank order, so
// teardown and instrumentation never depend on map iteration order.
func (c *NetComm) snapshotPeers() []*peer {
	c.mu.Lock()
	out := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// sendLoop drains one peer's outgoing queue onto the wire, applying the
// fault plan. When the queue is closed (graceful shutdown) it finishes
// the drain, says goodbye, and exits; a write failure tears the peer
// down.
//
//ugo:hotpath driver
func (c *NetComm) sendLoop(p *peer) {
	defer c.wg.Done()
	defer c.opts.Capture.CapturePanic("netcomm.sendLoop")
	var buf []byte
	for {
		// The outgoing queue blocks by design; peerGone and Close close it,
		// which unblocks Get.
		m, ok := p.out.Get()
		if !ok {
			// Queue closed and drained: every queued frame is on the
			// wire. The goodbye tells the remote this is a shutdown,
			// not a crash; an error here just means it already knows.
			_ = p.write(frameGoodbye, nil)
			return
		}
		dup := false
		if r, matched := c.opts.Fault.match(m.Tag); matched {
			switch r.Action {
			case FaultDrop:
				continue
			case FaultDelay:
				time.Sleep(r.Delay)
			case FaultDuplicate:
				dup = true
			case FaultDisconnect:
				c.peerGone(p, errInjected)
				return
			}
		}
		// The frame write is a Lamport send event: stamping here (not at
		// the Send call) still orders every event the sender emitted
		// before Send strictly before the frame, since the clock is
		// monotone. Nil/non-causal tracers yield clock 0 (no causal info).
		buf = AppendMessage(buf[:0], m, c.trace.ClockSend())
		writes := 1
		if dup {
			writes = 2
		}
		for i := 0; i < writes; i++ {
			if err := p.write(frameData, buf); err != nil {
				c.peerGone(p, fmt.Errorf("netcomm: write to rank %d: %w", p.rank, err))
				return
			}
			ins := c.ins.Load()
			ins.bytesOut.Add(int64(len(buf)) + 5)
			ins.framesOut.Inc()
		}
	}
}

// recvLoop reads frames from one peer into the local mailbox until the
// connection fails (peer down) or a goodbye arrives (graceful).
//
//ugo:hotpath driver
func (c *NetComm) recvLoop(p *peer) {
	defer c.wg.Done()
	defer c.opts.Capture.CapturePanic("netcomm.recvLoop")
	var buf []byte // frame body buffer, reused across reads
	for {
		// Re-arm the read deadline each frame: the remote heartbeats
		// every HeartbeatEvery, so a healthy link always beats this
		// window and a dead one cannot park the loop forever.
		_ = p.conn.SetReadDeadline(time.Now().Add(p.readWindow))
		ftype, body, nbuf, err := readFrameInto(p.br, buf)
		buf = nbuf
		if err != nil {
			c.peerGone(p, fmt.Errorf("netcomm: read from rank %d: %w", p.rank, err))
			return
		}
		p.lastIn.Store(time.Now().UnixNano())
		switch ftype {
		case frameData:
			m, clk, derr := DecodeMessage(body)
			if derr != nil {
				c.peerGone(p, fmt.Errorf("netcomm: rank %d sent a malformed frame: %w", p.rank, derr))
				return
			}
			if m.From != p.rank {
				// The handshake fixed who is on this link; a frame that
				// claims another sender would be booked against a rank
				// that never sent it.
				c.peerGone(p, fmt.Errorf("netcomm: rank %d sent a malformed frame: sender field %d", p.rank, m.From))
				return
			}
			// Merge the sender's Lamport clock before the message becomes
			// visible locally: anything emitted after the delivery is then
			// causally ordered after everything the sender did before it.
			c.trace.ClockRecv(clk)
			ins := c.ins.Load()
			ins.bytesIn.Add(int64(len(body)) + 5)
			ins.framesIn.Inc()
			c.inbox.Put(m)
		case frameHeartbeat:
			// lastIn already refreshed; nothing else to do.
		case frameGoodbye:
			c.peerGone(p, nil)
			return
		default:
			// Unknown frame types are skipped for forward compatibility;
			// the version handshake keeps incompatible peers out anyway.
		}
	}
}

// heartbeatLoop sends a heartbeat every HeartbeatEvery and declares the
// peer dead after HeartbeatMiss silent intervals.
//
//ugo:hotpath driver
func (c *NetComm) heartbeatLoop(p *peer) {
	defer c.wg.Done()
	defer c.opts.Capture.CapturePanic("netcomm.heartbeatLoop")
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	miss := time.Duration(c.opts.HeartbeatMiss) * c.opts.HeartbeatEvery
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			if err := p.write(frameHeartbeat, nil); err != nil {
				c.peerGone(p, fmt.Errorf("netcomm: heartbeat to rank %d: %w", p.rank, err))
				return
			}
			c.ins.Load().heartbeats.Inc()
			c.trace.Emit(obs.Event{Kind: obs.KindCommHeartbeat, Rank: p.rank})
			if age := time.Since(time.Unix(0, p.lastIn.Load())); age > miss {
				// The cause text reaches the comm.peerdown trace event
				// (walldet): state the configured rule, not the measured
				// wall-clock age, so traces stay deterministic.
				c.peerGone(p, fmt.Errorf("netcomm: rank %d heartbeat timeout (%d missed intervals of %v)",
					p.rank, c.opts.HeartbeatMiss, c.opts.HeartbeatEvery))
				return
			}
		}
	}
}

// peerGone tears one peer down exactly once. cause == nil is a graceful
// departure (goodbye received, or our own shutdown); a non-nil cause is
// an ungraceful loss, announced to the local receiver as a synthesized
// TagPeerDown message. A worker losing the coordinator — gracefully or
// not — additionally closes its mailbox: nothing further can arrive, so
// blocked receivers must unwind.
func (c *NetComm) peerGone(p *peer, cause error) {
	p.down.Do(func() {
		close(p.stop)
		_ = p.conn.Close()
		p.out.Close()
		c.mu.Lock()
		delete(c.peers, p.rank)
		c.mu.Unlock()
		if cause != nil && !c.closing.Load() {
			ins := c.ins.Load()
			ins.peerDowns.Inc()
			c.trace.Emit(obs.Event{Kind: obs.KindCommPeerDown, Rank: p.rank, Str: cause.Error()})
			c.inbox.Put(comm.Message{From: p.rank, Tag: comm.TagPeerDown})
		}
		if c.rank != 0 && p.rank == 0 && !c.closing.Load() {
			c.inbox.Close()
		}
	})
}

// Size implements comm.Comm.
func (c *NetComm) Size() int { return c.size }

// Rank returns this endpoint's rank.
func (c *NetComm) Rank() int { return c.rank }

// Send implements comm.Comm: it enqueues m on the peer's outgoing
// queue (or the local mailbox for a self-send) and never blocks. Sends
// to a departed peer or after Close are dropped and counted, mirroring
// the in-process communicators' post-Close semantics.
func (c *NetComm) Send(to int, m comm.Message) {
	if to == c.rank {
		c.inbox.Put(m)
		return
	}
	c.mu.Lock()
	p := c.peers[to]
	c.mu.Unlock()
	if p == nil {
		c.ins.Load().dropped.Inc()
		return
	}
	p.out.Put(m)
	if p.out.Depth() > outboxSoftCap {
		c.ins.Load().overflow.Inc()
	}
}

// Recv implements comm.Comm for this endpoint's own rank: it blocks
// until a message arrives, and after Close (or loss of the
// coordinator) drains the queue before returning a synthesized
// termination message (From = -1, Tag = TagTermination).
func (c *NetComm) Recv(rank int) comm.Message {
	c.mustBeLocal(rank)
	// Recv's contract is to block; Close and coordinator loss close the
	// inbox, which unblocks Get.
	m, ok := c.inbox.Get()
	if !ok {
		return comm.Message{From: -1, Tag: comm.TagTermination}
	}
	return m
}

// TryRecv implements comm.Comm for this endpoint's own rank.
func (c *NetComm) TryRecv(rank int) (comm.Message, bool) {
	c.mustBeLocal(rank)
	return c.inbox.TryGet()
}

// Closed reports whether this endpoint's receive path has shut down
// (Close was called, or a worker lost its coordinator). Pollers use it
// to exit cleanly instead of spinning on an empty mailbox.
func (c *NetComm) Closed() bool { return c.inbox.Closed() }

// mustBeLocal guards the single-rank receive path: a NetComm endpoint
// holds mail for its own rank only, so receiving for another rank is a
// wiring bug worth failing loudly on.
func (c *NetComm) mustBeLocal(rank int) {
	if rank != c.rank {
		panic(fmt.Sprintf("netcomm: endpoint is rank %d, cannot receive for rank %d", c.rank, rank))
	}
}

// Instrument registers this endpoint's metrics in reg: the local
// mailbox depth ("comm.mailbox.depth[rank]", matching the in-process
// communicators), per-peer outgoing queue depths
// ("comm.net.outbox.depth[rank]"), and the comm.net.* transfer
// counters. Construction via Options.Metrics does this automatically.
func (c *NetComm) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.inbox.SetDepthGauge(reg.Gauge(fmt.Sprintf("comm.mailbox.depth[%d]", c.rank)))
	for _, p := range c.snapshotPeers() {
		p.out.SetDepthGauge(reg.Gauge(fmt.Sprintf("comm.net.outbox.depth[%d]", p.rank)))
	}
	c.ins.Store(&instruments{
		bytesOut:   reg.Counter("comm.net.bytes.out"),
		bytesIn:    reg.Counter("comm.net.bytes.in"),
		framesOut:  reg.Counter("comm.net.frames.out"),
		framesIn:   reg.Counter("comm.net.frames.in"),
		dropped:    reg.Counter("comm.net.dropped"),
		overflow:   reg.Counter("comm.net.outbox.overflow"),
		heartbeats: reg.Counter("comm.net.heartbeats"),
		peerDowns:  reg.Counter("comm.net.peerdowns"),
	})
}

// abort tears down a partially assembled endpoint (failed rendezvous).
func (c *NetComm) abort() {
	c.closing.Store(true)
	for _, p := range c.snapshotPeers() {
		c.peerGone(p, nil)
	}
	if c.ln != nil {
		_ = c.ln.Close()
	}
	c.wg.Wait()
	c.inbox.Close()
}

// Close shuts the endpoint down gracefully: the listener stops
// accepting, every outgoing queue is closed so its send loop drains
// all in-flight frames and says goodbye, and the loops are awaited up
// to Options.CloseTimeout before remaining connections are forced
// shut. Safe to call more than once.
func (c *NetComm) Close() error {
	c.closeOnce.Do(func() {
		c.closing.Store(true)
		if c.ln != nil {
			_ = c.ln.Close()
		}
		for _, p := range c.snapshotPeers() {
			p.out.Close()
		}
		done := make(chan struct{})
		go func() {
			c.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(c.opts.CloseTimeout):
			for _, p := range c.snapshotPeers() {
				c.peerGone(p, nil)
			}
			<-done
		}
		c.inbox.Close()
	})
	return nil
}
