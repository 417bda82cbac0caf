package netcomm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ug/comm"
)

// quickOpts keeps the tests snappy: short heartbeats, short retries.
func quickOpts() Options {
	return Options{
		HeartbeatEvery:    20 * time.Millisecond,
		RendezvousTimeout: 10 * time.Second,
		RetryBase:         2 * time.Millisecond,
		CloseTimeout:      2 * time.Second,
	}
}

// rendezvous assembles a coordinator and size-1 workers over loopback.
// wOpts[i] configures worker rank i+1 (missing entries use quickOpts).
func rendezvous(t *testing.T, size int, coOpts Options, wOpts ...Options) (*NetComm, []*NetComm) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type coRes struct {
		c   *NetComm
		err error
	}
	coCh := make(chan coRes, 1)
	go func() {
		c, err := ln.Rendezvous(size, coOpts)
		coCh <- coRes{c, err}
	}()
	workers := make([]*NetComm, size-1)
	for r := 1; r < size; r++ {
		o := quickOpts()
		if r-1 < len(wOpts) {
			o = wOpts[r-1]
		}
		w, err := Dial(ln.Addr(), r, o)
		if err != nil {
			t.Fatalf("dial rank %d: %v", r, err)
		}
		workers[r-1] = w
	}
	co := <-coCh
	if co.err != nil {
		t.Fatal(co.err)
	}
	t.Cleanup(func() {
		_ = co.c.Close()
		for _, w := range workers {
			_ = w.Close()
		}
	})
	return co.c, workers
}

func TestRendezvousExchange(t *testing.T) {
	reg := obs.NewRegistry()
	coOpts := quickOpts()
	coOpts.Metrics = reg
	co, workers := rendezvous(t, 3, coOpts)
	if co.Size() != 3 || co.Rank() != 0 {
		t.Fatalf("coordinator: size %d rank %d", co.Size(), co.Rank())
	}
	for i, w := range workers {
		if w.Size() != 3 || w.Rank() != i+1 {
			t.Fatalf("worker %d: size %d rank %d", i, w.Size(), w.Rank())
		}
	}
	// Coordinator → workers.
	for r := 1; r <= 2; r++ {
		co.Send(r, comm.Message{From: 0, Tag: comm.TagSubproblem, Payload: []byte{byte(r)}})
	}
	for i, w := range workers {
		m := w.Recv(i + 1)
		if m.Tag != comm.TagSubproblem || m.From != 0 || m.Payload[0] != byte(i+1) {
			t.Fatalf("worker %d got %+v", i, m)
		}
	}
	// Workers → coordinator, plus a coordinator self-send.
	for i, w := range workers {
		w.Send(0, comm.Message{From: i + 1, Tag: comm.TagStatus})
	}
	co.Send(0, comm.Message{From: 0, Tag: comm.TagStop})
	seen := map[int]bool{}
	var tags []comm.Tag
	for len(tags) < 3 {
		m := co.Recv(0)
		tags = append(tags, m.Tag)
		seen[m.From] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("missing senders: %v (tags %v)", seen, tags)
	}
	// The send loop counts a frame after its write returns; on a loaded
	// host that bookkeeping can trail the replies the frame provoked.
	deadline := time.Now().Add(time.Second)
	for reg.Counter("comm.net.bytes.out").Value() <= 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := reg.Counter("comm.net.bytes.out").Value(); got <= 0 {
		t.Fatalf("bytes.out counter not flowing: %d", got)
	}
	if got := reg.Counter("comm.net.frames.in").Value(); got < 2 {
		t.Fatalf("frames.in counter not flowing: %d", got)
	}
}

func TestDuplicateRankRejected(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(3, quickOpts())
		co = c
		coCh <- err
	}()
	w1, err := Dial(ln.Addr(), 1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	var rej *RejectedError
	if _, err := Dial(ln.Addr(), 1, quickOpts()); !errors.As(err, &rej) {
		t.Fatalf("duplicate rank: got %v, want RejectedError", err)
	} else if !strings.Contains(rej.Reason, "already joined") {
		t.Fatalf("reject reason: %q", rej.Reason)
	}
	w2, err := Dial(ln.Addr(), 2, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// Post-rendezvous dials are answered too, not left hanging.
	if _, err := Dial(ln.Addr(), 2, quickOpts()); !errors.As(err, &rej) {
		t.Fatalf("late dial: got %v, want RejectedError", err)
	}
}

// TestConcurrentDialsAdmitOneRank: hellos for one rank handshake on
// concurrent goroutines, and the rank check and registration are one
// step, so exactly one dial wins the rank and every other is rejected.
func TestConcurrentDialsAdmitOneRank(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(3, quickOpts())
		co = c
		coCh <- err
	}()
	const dials = 8
	results := make(chan *NetComm, dials)
	for i := 0; i < dials; i++ {
		go func() {
			w, err := Dial(ln.Addr(), 1, quickOpts())
			var rej *RejectedError
			if err != nil && (!errors.As(err, &rej) || !strings.Contains(rej.Reason, "already joined")) {
				t.Errorf("losing dial: %v, want an already-joined rejection", err)
			}
			results <- w
		}()
	}
	won := 0
	for i := 0; i < dials; i++ {
		if w := <-results; w != nil {
			won++
			defer w.Close()
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent dials won rank 1, want exactly 1", won, dials)
	}
	w2, err := Dial(ln.Addr(), 2, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	_ = co.Close()
}

func TestVersionMismatchRejected(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, quickOpts())
		co = c
		coCh <- err
	}()
	// Hand-rolled hello from a build speaking a future protocol version.
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := appendHello(nil, 1)
	hello[5] = 99 // low byte of the big-endian uint16 version field
	if err := writeFrame(conn, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	ft, body, err := readFrame(bufio.NewReader(conn))
	if err != nil || ft != frameReject {
		t.Fatalf("want reject frame, got type %d err %v", ft, err)
	}
	reason, err := decodeReject(body)
	if err != nil || !strings.Contains(reason, "protocol version") {
		t.Fatalf("reject reason %q err %v", reason, err)
	}
	_ = conn.Close()
	// The rendezvous is still open for a compatible worker.
	w, err := Dial(ln.Addr(), 1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	_ = co.Close()
}

func TestDialRetriesUntilListenerAppears(t *testing.T) {
	// Reserve a port, release it, and dial it before anyone listens: the
	// worker must retry (with comm.retry events) until the coordinator
	// shows up.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	_ = tmp.Close()

	sink := &obs.MemSink{}
	wOpts := quickOpts()
	wOpts.Trace = obs.NewTracer(sink)
	type dialRes struct {
		c   *NetComm
		err error
	}
	dialCh := make(chan dialRes, 1)
	go func() {
		c, err := Dial(addr, 1, wOpts)
		dialCh <- dialRes{c, err}
	}()
	time.Sleep(100 * time.Millisecond)
	ln, err := Listen(addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	co, err := ln.Rendezvous(2, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	w := <-dialCh
	if w.err != nil {
		t.Fatal(w.err)
	}
	defer w.c.Close()
	if retries := sink.Filter(obs.KindCommRetry); len(retries) == 0 {
		t.Fatal("no comm.retry events for a dial that had to wait")
	}
}

func TestRankOutsideRosterIsTerminal(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, quickOpts())
		co = c
		coCh <- err
	}()
	var rej *RejectedError
	if _, err := Dial(ln.Addr(), 9, quickOpts()); !errors.As(err, &rej) {
		t.Fatalf("oversized rank: got %v, want RejectedError", err)
	}
	w, err := Dial(ln.Addr(), 1, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	_ = co.Close()
}

// recvWithTimeout guards blocking Recv calls in failure tests so a
// regression shows up as a test failure, not a suite hang.
func recvWithTimeout(t *testing.T, c *NetComm, d time.Duration) comm.Message {
	t.Helper()
	ch := make(chan comm.Message, 1)
	go func() { ch <- c.Recv(c.Rank()) }()
	select {
	case m := <-ch:
		return m
	case <-time.After(d):
		t.Fatalf("rank %d: no message within %v", c.Rank(), d)
		return comm.Message{}
	}
}

func TestAbruptDisconnectSynthesizesPeerDown(t *testing.T) {
	sink := &obs.MemSink{}
	coOpts := quickOpts()
	coOpts.Trace = obs.NewTracer(sink)
	co, workers := rendezvous(t, 2, coOpts)
	// Sever the worker's socket without a goodbye — the wire view of a
	// crashed worker process.
	for _, p := range workers[0].snapshotPeers() {
		_ = p.conn.Close()
	}
	m := recvWithTimeout(t, co, 5*time.Second)
	if m.Tag != comm.TagPeerDown || m.From != 1 {
		t.Fatalf("coordinator got %+v, want peerDown from 1", m)
	}
	if co.hasPeer(1) {
		t.Fatal("dead peer still in roster")
	}
	if evs := sink.Filter(obs.KindCommPeerDown); len(evs) == 0 {
		t.Fatal("no comm.peerdown trace event")
	}
	// The worker side sees the same loss and unwinds: first its own
	// peer-down notice, then mailbox closure.
	wm := recvWithTimeout(t, workers[0], 5*time.Second)
	if wm.Tag != comm.TagPeerDown || wm.From != 0 {
		t.Fatalf("worker got %+v, want peerDown from 0", wm)
	}
	tm := recvWithTimeout(t, workers[0], 5*time.Second)
	if tm.Tag != comm.TagTermination || tm.From != -1 {
		t.Fatalf("worker got %+v, want synthesized termination", tm)
	}
	if !workers[0].Closed() {
		t.Fatal("worker transport not closed after losing its coordinator")
	}
}

// rawPeer dials addr and completes the hello/welcome handshake as rank
// by hand, returning the connection for the test to misbehave on.
func rawPeer(t *testing.T, addr string, rank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, appendHello(nil, rank)); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := readFrame(bufio.NewReader(conn)); err != nil || ft != frameWelcome {
		t.Fatalf("handshake: type %d err %v", ft, err)
	}
	return conn
}

// The transport's socket bounds are pinned by behaviour, one test each:
//
//   - handshake: TestSilentConnectionDoesNotStallRendezvous
//   - dial:      TestDialToSilentListenerGivesUp
//   - write:     TestWriteTimeoutDeclaresPeerDown
//   - read:      TestHeartbeatTimeoutDeclaresPeerDead
//
// A bound that exists but is the wrong one (armed on the rendezvous
// instead of the connection, say) fails here.

// TestSilentConnectionDoesNotStallRendezvous: a connection that never
// sends its hello holds only its own handshake goroutine. A serial
// accept loop waits on it until the rendezvous deadline, and then the
// coordinator and the real worker behind it both fail.
func TestSilentConnectionDoesNotStallRendezvous(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.RendezvousTimeout = 3 * time.Second
	start := time.Now()
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, opts)
		co = c
		coCh <- err
	}()
	silent, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	w, werr := Dial(ln.Addr(), 1, opts)
	cerr := <-coCh
	elapsed := time.Since(start)
	_ = silent.Close()
	if w != nil {
		defer w.Close()
	}
	if co != nil {
		defer co.Close()
	}
	if werr != nil || cerr != nil {
		t.Fatalf("behind a silent connection: worker %v, coordinator %v", werr, cerr)
	}
	if elapsed > opts.RendezvousTimeout/2 {
		t.Fatalf("rendezvous took %v behind a silent connection; timeout %v", elapsed, opts.RendezvousTimeout)
	}
}

// TestDialToSilentListenerGivesUp: a coordinator that accepts but
// never answers the hello cannot hold Dial past RendezvousTimeout.
func TestDialToSilentListenerGivesUp(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One connection per dial attempt; the 1 s window allows only a few.
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- conn
		}
	}()
	opts := quickOpts()
	opts.RendezvousTimeout = time.Second
	start := time.Now()
	_, err = Dial(l.Addr().String(), 1, opts)
	elapsed := time.Since(start)
	_ = l.Close()
	for conn := range accepted {
		_ = conn.Close()
	}
	if err == nil {
		t.Fatal("Dial succeeded against a listener that never answers")
	}
	if limit := opts.RendezvousTimeout + 2*time.Second; elapsed > limit {
		t.Fatalf("Dial returned after %v, want within %v: %v", elapsed, limit, err)
	}
}

// TestWriteTimeoutDeclaresPeerDown pins the write-side bound: a peer
// that keeps its link alive with heartbeats but never reads fills the
// socket buffers, and the frame write that then blocks fails at its
// writeTimeout deadline, tearing the peer down with a write-timeout
// cause. The heartbeats keep the read-side bound out of it; that one
// is TestHeartbeatTimeoutDeclaresPeerDead.
func TestWriteTimeoutDeclaresPeerDown(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemSink{}
	coOpts := quickOpts()
	coOpts.Trace = obs.NewTracer(sink)
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, coOpts)
		co = c
		coCh <- err
	}()
	conn := rawPeer(t, ln.Addr(), 1)
	defer conn.Close()
	// A small fixed receive buffer: the coordinator's writes stall after
	// a few MiB instead of the autotuned maximum.
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	beating := make(chan struct{})
	go func() {
		defer close(beating)
		tick := time.NewTicker(coOpts.HeartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if writeFrame(conn, frameHeartbeat, nil) != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-beating }()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	payload := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		co.Send(1, comm.Message{From: 0, Tag: comm.TagSubproblem, Payload: payload})
	}
	m := recvWithTimeout(t, co, writeTimeout+2*time.Second)
	elapsed := time.Since(start)
	if m.Tag != comm.TagPeerDown || m.From != 1 {
		t.Fatalf("got %+v, want peerDown from the rank that stopped reading", m)
	}
	if elapsed < writeTimeout {
		t.Fatalf("peer torn down after %v, before any write deadline (%v) could expire", elapsed, writeTimeout)
	}
	evs := sink.Filter(obs.KindCommPeerDown)
	if len(evs) != 1 || !strings.Contains(evs[0].Str, "i/o timeout") || strings.Contains(evs[0].Str, "read from") {
		t.Fatalf("peer-down causes %+v, want one write timeout", evs)
	}
}

// TestHeartbeatTimeoutDeclaresPeerDead pins the read-side bound: a peer
// that handshakes and then sends nothing at all is declared dead after
// HeartbeatMiss silent intervals.
func TestHeartbeatTimeoutDeclaresPeerDead(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coOpts := quickOpts()
	coOpts.HeartbeatEvery = 10 * time.Millisecond
	coOpts.HeartbeatMiss = 3
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, coOpts)
		co = c
		coCh <- err
	}()
	// A hand-rolled worker that completes the handshake and then goes
	// silent: no heartbeats, no data, but the socket stays open — the
	// failure TCP alone never reports.
	conn := rawPeer(t, ln.Addr(), 1)
	defer conn.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	m := recvWithTimeout(t, co, 5*time.Second)
	if m.Tag != comm.TagPeerDown || m.From != 1 {
		t.Fatalf("got %+v, want peerDown from silent rank 1", m)
	}
}

func TestForgedSenderIsMalformed(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coCh := make(chan error, 1)
	var co *NetComm
	go func() {
		c, err := ln.Rendezvous(2, quickOpts())
		co = c
		coCh <- err
	}()
	// A hand-rolled worker handshaken as rank 1 whose data frame claims
	// to come from rank 7, outside the roster: delivered as sent, it would
	// make the coordinator book an outcome for a rank that does not exist.
	conn := rawPeer(t, ln.Addr(), 1)
	defer conn.Close()
	if err := <-coCh; err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	forged := AppendMessage(nil, comm.Message{From: 7, Tag: comm.TagTerminated}, 0)
	if err := writeFrame(conn, frameData, forged); err != nil {
		t.Fatal(err)
	}
	m := recvWithTimeout(t, co, 5*time.Second)
	if m.Tag != comm.TagPeerDown || m.From != 1 {
		t.Fatalf("got %+v, want peerDown from rank 1", m)
	}
	if co.hasPeer(1) {
		t.Fatal("peer that forged its sender still in roster")
	}
}

func TestFaultDropDelayDuplicate(t *testing.T) {
	wOpts := quickOpts()
	wOpts.Fault = NewFaultPlan(
		FaultRule{Tag: comm.TagStatus, Nth: 1, Action: FaultDrop},
		FaultRule{Tag: comm.TagStatus, Nth: 2, Action: FaultDuplicate},
		FaultRule{Tag: comm.TagStatus, Nth: 3, Action: FaultDelay, Delay: time.Millisecond},
	)
	co, workers := rendezvous(t, 2, quickOpts(), wOpts)
	w := workers[0]
	for i := byte(1); i <= 3; i++ {
		w.Send(0, comm.Message{From: 1, Tag: comm.TagStatus, Payload: []byte{i}})
	}
	var got []byte
	for len(got) < 3 {
		m := recvWithTimeout(t, co, 5*time.Second)
		if m.Tag != comm.TagStatus {
			t.Fatalf("unexpected %+v", m)
		}
		got = append(got, m.Payload[0])
	}
	if fmt.Sprint(got) != fmt.Sprint([]byte{2, 2, 3}) {
		t.Fatalf("fault plan produced %v, want [2 2 3] (1 dropped, 2 duplicated)", got)
	}
}

func TestFaultDisconnectCompletesWithoutDeadlock(t *testing.T) {
	wOpts := quickOpts()
	wOpts.Fault = NewFaultPlan(FaultRule{Tag: comm.TagNode, Nth: 1, Action: FaultDisconnect})
	co, workers := rendezvous(t, 2, quickOpts(), wOpts)
	w := workers[0]
	w.Send(0, comm.Message{From: 1, Tag: comm.TagNode, Payload: []byte("boom")})
	m := recvWithTimeout(t, co, 5*time.Second)
	if m.Tag != comm.TagPeerDown || m.From != 1 {
		t.Fatalf("coordinator got %+v, want peerDown from 1", m)
	}
	// The injecting side unwinds like a crash too: peer-down notice,
	// then the synthesized termination of a closed mailbox.
	if m := recvWithTimeout(t, w, 5*time.Second); m.Tag != comm.TagPeerDown {
		t.Fatalf("worker got %+v, want peerDown", m)
	}
	if m := recvWithTimeout(t, w, 5*time.Second); m.Tag != comm.TagTermination {
		t.Fatalf("worker got %+v, want synthesized termination", m)
	}
}

func TestGracefulCloseDrainsInFlight(t *testing.T) {
	const n = 200
	co, workers := rendezvous(t, 2, quickOpts())
	w := workers[0]
	for i := 0; i < n; i++ {
		w.Send(0, comm.Message{From: 1, Tag: comm.TagStatus, Payload: []byte{byte(i)}})
	}
	// Close races the send loop's drain on purpose: every queued frame
	// must still arrive, followed by a goodbye — never a peer-down.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m := recvWithTimeout(t, co, 5*time.Second)
		if m.Tag != comm.TagStatus || int(m.Payload[0]) != i%256 {
			t.Fatalf("message %d: got %+v", i, m)
		}
	}
	// Allow the goodbye to land, then verify the departure was graceful.
	deadline := time.Now().Add(time.Second)
	for co.hasPeer(1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if co.hasPeer(1) {
		t.Fatal("goodbye not processed")
	}
	if m, ok := co.TryRecv(0); ok {
		t.Fatalf("unexpected trailing message %+v", m)
	}
}

func TestSendAfterPeerGoneIsCountedDrop(t *testing.T) {
	reg := obs.NewRegistry()
	coOpts := quickOpts()
	coOpts.Metrics = reg
	co, workers := rendezvous(t, 2, coOpts)
	_ = workers[0].Close()
	deadline := time.Now().Add(time.Second)
	for co.hasPeer(1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	co.Send(1, comm.Message{From: 0, Tag: comm.TagStop})
	if got := reg.Counter("comm.net.dropped").Value(); got != 1 {
		t.Fatalf("dropped counter = %d, want 1", got)
	}
}
