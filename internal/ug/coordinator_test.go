package ug

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ug/comm"
)

// scriptComm is a ChannelComm that counts the coordinator's empty polls,
// so a script can tell when every message it sent has been handled and
// the event loop has gone quiet again.
type scriptComm struct {
	*comm.ChannelComm
	empty atomic.Int64
}

func (s *scriptComm) TryRecv(rank int) (comm.Message, bool) {
	m, ok := s.ChannelComm.TryRecv(rank)
	if rank == 0 && !ok {
		s.empty.Add(1)
	}
	return m, ok
}

// coordScript drives the LoadCoordinator with RemoteWorkers: the test
// plays every ParaSolver rank itself, one message at a time, and records
// what the coordinator emits and sends back.
type coordScript struct {
	t    *testing.T
	c    *scriptComm
	sink *obs.MemSink
	// cancel is the run's Config.Cancel; a script closes it to cancel.
	cancel chan struct{}
	done   chan struct{}
	res    *Result
	err    error
}

func startScript(t *testing.T, cfg Config) *coordScript {
	t.Helper()
	s := &coordScript{
		t:      t,
		c:      &scriptComm{ChannelComm: comm.NewChannelComm(cfg.Workers + 1)},
		sink:   &obs.MemSink{},
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	cfg.Comm, cfg.RemoteWorkers, cfg.Trace, cfg.Cancel = s.c, true, obs.NewTracer(s.sink), s.cancel
	go func() {
		defer close(s.done)
		s.res, s.err = Run(&fakeFactory{lo: 0, hi: 100, settings: 2}, cfg)
	}()
	s.settle()
	return s
}

// settle waits until the coordinator has handled everything sent so far
// and finished the loop iterations that follow: at most one empty poll
// can predate the last send, and the timer checks (cancel, stop) run at
// the end of an iteration, so three empty polls from now bound it.
func (s *coordScript) settle() {
	s.t.Helper()
	n := s.c.empty.Load()
	deadline := time.Now().Add(10 * time.Second)
	for s.c.empty.Load() < n+3 {
		select {
		case <-s.done:
			return
		default:
		}
		if time.Now().After(deadline) {
			s.t.Fatal("coordinator did not settle within 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// send delivers one message from a scripted rank (v is gob-encoded; nil
// sends no payload) and waits for the coordinator to settle.
func (s *coordScript) send(from int, tag comm.Tag, v any) {
	s.t.Helper()
	var payload []byte
	if v != nil {
		payload = enc(v)
	}
	s.c.Send(0, comm.Message{From: from, Tag: tag, Payload: payload})
	s.settle()
}

// finish waits for Run to return and reports the coordinator events
// (Tick and Wall stripped) and the tags each rank received.
func (s *coordScript) finish() (*Result, []string, []string) {
	s.t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.t.Fatal("run did not finish within 10s")
	}
	if s.err != nil {
		s.t.Fatalf("run: %v", s.err)
	}
	var evs []string
	for _, ev := range s.sink.Events() {
		evs = append(evs, fmt.Sprintf("%s r%d s%d d%g p%g o%d %q",
			ev.Kind, ev.Rank, ev.Sub, ev.Dual, ev.Primal, ev.Open, ev.Str))
	}
	var tags []string
	for rank := 1; rank < s.c.Size(); rank++ {
		var got []string
		for {
			m, ok := s.c.ChannelComm.TryRecv(rank)
			if !ok {
				break
			}
			got = append(got, m.Tag.String())
		}
		tags = append(tags, fmt.Sprintf("r%d: %s", rank, strings.Join(got, " ")))
	}
	return s.res, evs, tags
}

func resultLine(r *Result) string {
	st := r.Stats
	return fmt.Sprintf("optimal=%v infeasible=%v obj=%g dual=%g open=%d dispatched=%d collected=%d collectPhases=%d maxActive=%d winner=%d %q solvedInRacing=%v",
		r.Optimal, r.Infeasible, r.Obj, r.DualBound, st.OpenAtEnd, st.Dispatched, st.Collected,
		st.CollectPhases, st.MaxActive, st.RacingWinner, st.RacingWinnerName, st.SolvedInRacing)
}

func node(bound float64) Subproblem { return Subproblem{Depth: 1, Bound: bound, Payload: []byte("n")} }

func done(nodes int64) Outcome { return Outcome{Completed: true, Nodes: nodes} }

func interrupted(nodes int64, open int) Outcome { return Outcome{Nodes: nodes, OpenLeft: open} }

// TestCoordinatorScript pins the LoadCoordinator's observable behaviour —
// its trace event sequence, the tags every rank receives and the run's
// result — on scripted three-rank runs covering dispatch, collect mode,
// incumbent broadcast, racing (node-limit winner, a racer that solves the
// instance, the winner lost during wind-up), cancellation (a stopped
// rank's reported bound goes back with its subproblem) and a closed
// transport. RacingTime is an hour, so only a status report with at least
// 50 open nodes ends a race.
func TestCoordinatorScript(t *testing.T) {
	racing := Config{Workers: 3, RampUp: RampUpRacing, RacingTime: 3600}
	normal := Config{Workers: 3}
	cases := []struct {
		name       string
		cfg        Config
		script     func(s *coordScript)
		wantEvents []string
		wantTags   []string
		wantResult string
	}{
		{
			name: "dispatch-collect-incumbent",
			cfg:  normal,
			script: func(s *coordScript) {
				s.send(3, comm.TagStatus, StatusReport{Bound: 1, Open: 4, Nodes: 3})
				for _, b := range []float64{2, 3, 4, 6, 7, 8, 9, 10, 11} {
					s.send(3, comm.TagNode, node(b))
				}
				s.send(1, comm.TagSolution, Solution{Obj: 7})
				s.send(2, comm.TagSolution, Solution{Obj: 8}) // no improvement: no broadcast
				s.send(2, comm.TagTerminated, done(5))
				s.send(1, comm.TagTerminated, done(6))
				s.send(3, comm.TagTerminated, done(7))
				s.send(2, comm.TagTerminated, done(1))
				s.send(1, comm.TagTerminated, done(1))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o0 \"\"",
				"status r3 s0 d1 p0 o4 \"\"",
				"dual r0 s0 d1 p+Inf o0 \"\"",
				"collect.node r3 s1 d2 p0 o0 \"\"",
				"dispatch r2 s1 d2 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"collect.node r3 s2 d3 p0 o0 \"\"",
				"dispatch r1 s2 d3 p0 o0 \"\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"collect.node r3 s3 d4 p0 o0 \"\"",
				"collect.node r3 s4 d6 p0 o0 \"\"",
				"collect.node r3 s5 d7 p0 o0 \"\"",
				"collect.node r3 s6 d8 p0 o0 \"\"",
				"collect.node r3 s7 d9 p0 o0 \"\"",
				"collect.node r3 s8 d10 p0 o0 \"\"",
				"collect.node r3 s9 d11 p0 o0 \"\"",
				"collect.stop r0 s0 d0 p0 o7 \"\"",
				"incumbent r1 s0 d0 p7 o0 \"\"",
				"collect.start r0 s0 d0 p0 o2 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dispatch r2 s3 d4 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"outcome r1 s0 d0 p0 o0 \"completed\"",
				"solver.idle r1 s0 d0 p0 o0 \"\"",
				"dispatch r1 s4 d6 p0 o0 \"\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o0 \"completed\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d4 p7 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d6 p7 o0 \"\"",
				"outcome r1 s0 d0 p0 o0 \"completed\"",
				"solver.idle r1 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d7 p7 o0 \"\"",
				"run.end r0 s0 d7 p7 o0 \"\"",
			},
			wantTags: []string{
				"r1: subproblem startCollect stopCollect startCollect subproblem startCollect termination",
				"r2: subproblem startCollect stopCollect solution startCollect subproblem startCollect termination",
				"r3: subproblem startCollect stopCollect solution startCollect termination",
			},
			wantResult: "optimal=true infeasible=false obj=7 dual=7 open=0 dispatched=5 collected=9 collectPhases=2 maxActive=3 winner=-1 \"\" solvedInRacing=false",
		},
		{
			name: "racing-nodelimit-winner-lost",
			cfg:  racing,
			script: func(s *coordScript) {
				// Ranks 1 and 3 tie on bound and open nodes: the lower rank wins.
				s.send(1, comm.TagStatus, StatusReport{Bound: 2, Open: 49})
				s.send(3, comm.TagStatus, StatusReport{Bound: 2, Open: 49})
				s.send(2, comm.TagStatus, StatusReport{Bound: 1, Open: 50})
				s.send(1, comm.TagNode, node(3))
				s.send(1, comm.TagNode, node(4))
				s.send(2, comm.TagTerminated, interrupted(7, 50))
				s.send(1, comm.TagPeerDown, nil)
				s.send(1, comm.TagStatus, StatusReport{Bound: 9, Open: 9}) // dead rank: dropped
				s.send(1, comm.TagNode, node(5))                           // dead rank's node: kept
				s.send(3, comm.TagTerminated, interrupted(8, 49))
				s.send(3, comm.TagSolution, Solution{Obj: 10})
				s.send(3, comm.TagTerminated, done(2))
				s.send(2, comm.TagTerminated, done(2))
				s.send(3, comm.TagTerminated, done(2))
				s.send(2, comm.TagTerminated, done(2))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"racing.start r0 s0 d0 p0 o2 \"\"",
				"dispatch r1 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"dispatch r2 s0 d-Inf p0 o0 \"B\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"status r1 s0 d2 p0 o49 \"\"",
				"status r3 s0 d2 p0 o49 \"\"",
				"status r2 s0 d1 p0 o50 \"\"",
				"dual r0 s0 d1 p+Inf o0 \"\"",
				"racing.winner r1 s0 d0 p0 o0 \"A\"",
				"collect.node r1 s1 d3 p0 o0 \"\"",
				"collect.node r1 s2 d4 p0 o0 \"\"",
				"outcome r2 s0 d0 p0 o50 \"interrupted\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d2 p+Inf o0 \"\"",
				"comm.peerdown r1 s0 d0 p0 o0 \"\"",
				"collect.node r1 s3 d5 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o49 \"interrupted\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"racing.done r0 s0 d0 p0 o4 \"\"",
				"dispatch r3 s0 d2 p0 o0 \"\"", // the winner's bound went back with the root
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"dispatch r2 s1 d3 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o2 \"\"",
				"incumbent r3 s0 d0 p10 o0 \"\"",
				"outcome r3 s0 d0 p0 o0 \"completed\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d3 p10 o0 \"\"",
				"dispatch r3 s2 d4 p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d4 p10 o0 \"\"",
				"dispatch r2 s3 d5 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o0 \"completed\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d5 p10 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d10 p10 o0 \"\"",
				"run.end r0 s0 d10 p10 o0 \"\"",
			},
			wantTags: []string{
				"r1: racing extractAll termination",
				"r2: racing stop subproblem startCollect solution subproblem startCollect termination",
				"r3: racing stop subproblem startCollect subproblem startCollect termination",
			},
			wantResult: "optimal=true infeasible=false obj=10 dual=10 open=0 dispatched=7 collected=3 collectPhases=1 maxActive=3 winner=0 \"A\" solvedInRacing=false",
		},
		{
			name: "racing-solved",
			cfg:  racing,
			script: func(s *coordScript) {
				s.send(2, comm.TagStatus, StatusReport{Bound: 1, Open: 3})
				s.send(2, comm.TagSolution, Solution{Obj: 9})
				s.send(2, comm.TagTerminated, done(12))
				s.send(1, comm.TagTerminated, interrupted(4, 5))
				s.send(3, comm.TagTerminated, interrupted(3, 4))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"racing.start r0 s0 d0 p0 o2 \"\"",
				"dispatch r1 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"dispatch r2 s0 d-Inf p0 o0 \"B\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"status r2 s0 d1 p0 o3 \"\"",
				"incumbent r2 s0 d0 p9 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"racing.winner r2 s1 d0 p0 o0 \"B\"",
				"outcome r1 s0 d0 p0 o5 \"interrupted\"",
				"solver.idle r1 s0 d0 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o4 \"interrupted\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"racing.done r0 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d9 p9 o0 \"\"",
				"run.end r0 s0 d9 p9 o0 \"\"",
			},
			wantTags: []string{
				"r1: racing solution stop termination",
				"r2: racing termination",
				"r3: racing solution stop termination",
			},
			wantResult: "optimal=true infeasible=false obj=9 dual=9 open=0 dispatched=3 collected=0 collectPhases=0 maxActive=3 winner=1 \"B\" solvedInRacing=true",
		},
		{
			name: "cancel-mid-run",
			cfg:  normal,
			script: func(s *coordScript) {
				s.send(3, comm.TagNode, node(2))
				s.send(3, comm.TagNode, node(3))
				s.send(3, comm.TagNode, node(4))
				close(s.cancel)
				s.settle()
				s.send(1, comm.TagTerminated, interrupted(3, 2))
				s.send(2, comm.TagTerminated, done(4))
				s.send(3, comm.TagTerminated, interrupted(5, 6))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o0 \"\"",
				"collect.node r3 s1 d2 p0 o0 \"\"",
				"dispatch r2 s1 d2 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"collect.node r3 s2 d3 p0 o0 \"\"",
				"dispatch r1 s2 d3 p0 o0 \"\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"collect.node r3 s3 d4 p0 o0 \"\"",
				"run.stop r0 s0 d0 p0 o3 \"\"",
				"outcome r1 s0 d0 p0 o2 \"interrupted\"",
				"solver.idle r1 s0 d0 p0 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o6 \"interrupted\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"run.end r0 s0 d-Inf p+Inf o0 \"\"",
			},
			wantTags: []string{
				"r1: subproblem startCollect stop termination",
				"r2: subproblem startCollect stop termination",
				"r3: subproblem startCollect stop termination",
			},
			wantResult: "optimal=false infeasible=false obj=0 dual=-Inf open=11 dispatched=3 collected=3 collectPhases=1 maxActive=3 winner=-1 \"\" solvedInRacing=false",
		},
		{
			// The stopped rank's last reported bound, not the root's −Inf,
			// goes back to the pool with the root and is the final bound.
			name: "stop-keeps-reported-bound",
			cfg:  normal,
			script: func(s *coordScript) {
				s.send(3, comm.TagStatus, StatusReport{Bound: 5, Open: 2, Nodes: 3})
				close(s.cancel)
				s.settle()
				s.send(3, comm.TagTerminated, interrupted(4, 2))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o0 \"\"",
				"status r3 s0 d5 p0 o2 \"\"",
				"dual r0 s0 d5 p+Inf o0 \"\"",
				"run.stop r0 s0 d0 p0 o1 \"\"",
				"outcome r3 s0 d0 p0 o2 \"interrupted\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"run.end r0 s0 d5 p+Inf o0 \"\"",
			},
			wantTags: []string{
				"r1: termination",
				"r2: termination",
				"r3: subproblem startCollect stop termination",
			},
			wantResult: "optimal=false infeasible=false obj=0 dual=5 open=3 dispatched=1 collected=0 collectPhases=1 maxActive=1 winner=-1 \"\" solvedInRacing=false",
		},
		{
			name: "cancel-mid-race",
			cfg:  racing,
			script: func(s *coordScript) {
				close(s.cancel)
				s.settle()
				s.send(1, comm.TagTerminated, interrupted(3, 3))
				s.send(2, comm.TagTerminated, interrupted(4, 4))
				s.send(3, comm.TagTerminated, interrupted(5, 5))
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"racing.start r0 s0 d0 p0 o2 \"\"",
				"dispatch r1 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"dispatch r2 s0 d-Inf p0 o0 \"B\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"run.stop r0 s0 d0 p0 o3 \"\"",
				"outcome r1 s0 d0 p0 o3 \"interrupted\"",
				"solver.idle r1 s0 d0 p0 o0 \"\"",
				"outcome r2 s0 d0 p0 o4 \"interrupted\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"outcome r3 s0 d0 p0 o5 \"interrupted\"",
				"solver.idle r3 s0 d0 p0 o0 \"\"",
				"racing.done r0 s0 d0 p0 o1 \"\"",
				"run.end r0 s0 d-Inf p+Inf o0 \"\"",
			},
			wantTags: []string{
				"r1: racing stop termination",
				"r2: racing stop termination",
				"r3: racing stop termination",
			},
			wantResult: "optimal=false infeasible=false obj=0 dual=-Inf open=13 dispatched=3 collected=0 collectPhases=0 maxActive=3 winner=-1 \"\" solvedInRacing=false",
		},
		{
			name: "closed-comm",
			cfg:  normal,
			script: func(s *coordScript) {
				s.send(3, comm.TagNode, node(2))
				s.c.Close()
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o0 \"\"",
				"collect.node r3 s1 d2 p0 o0 \"\"",
				"dispatch r2 s1 d2 p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"run.stop r0 s0 d0 p0 o2 \"\"",
				"run.end r0 s0 d-Inf p+Inf o0 \"\"",
			},
			wantTags: []string{
				"r1: ",
				"r2: subproblem startCollect",
				"r3: subproblem startCollect",
			},
			wantResult: "optimal=false infeasible=false obj=0 dual=-Inf open=2 dispatched=2 collected=1 collectPhases=1 maxActive=2 winner=-1 \"\" solvedInRacing=false",
		},
		{
			// Rank 1 is released first and never reported; rank 2's
			// bound 1 still goes back with the shared root.
			name: "closed-comm-mid-race",
			cfg:  racing,
			script: func(s *coordScript) {
				s.send(2, comm.TagStatus, StatusReport{Bound: 1, Open: 3})
				s.c.Close()
			},
			wantEvents: []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"racing.start r0 s0 d0 p0 o2 \"\"",
				"dispatch r1 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r1 s0 d0 p0 o0 \"\"",
				"dispatch r2 s0 d-Inf p0 o0 \"B\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"A\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"status r2 s0 d1 p0 o3 \"\"",
				"run.stop r0 s0 d0 p0 o3 \"\"",
				"run.end r0 s0 d1 p+Inf o0 \"\"",
			},
			wantTags: []string{
				"r1: racing",
				"r2: racing",
				"r3: racing",
			},
			wantResult: "optimal=false infeasible=false obj=0 dual=1 open=1 dispatched=3 collected=0 collectPhases=0 maxActive=3 winner=-1 \"\" solvedInRacing=false",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startScript(t, tc.cfg)
			tc.script(s)
			res, evs, tags := s.finish()
			if got := strings.Join(evs, "\n"); got != strings.Join(tc.wantEvents, "\n") {
				t.Errorf("events:\n%s", goldenList(evs))
			}
			if got := strings.Join(tags, "\n"); got != strings.Join(tc.wantTags, "\n") {
				t.Errorf("tags:\n%s", goldenList(tags))
			}
			if got := resultLine(res); got != tc.wantResult {
				t.Errorf("result:\n%q", got)
			}
		})
	}
}

// A worker payload that does not gob-decode must not bring the
// coordinator down: the message is dropped, and its sender, alive until
// then, is treated as lost, so its subproblem goes to another rank.
func TestCoordinatorDropsUndecodablePayload(t *testing.T) {
	for _, tag := range []comm.Tag{comm.TagSolution, comm.TagNode, comm.TagStatus, comm.TagTerminated} {
		t.Run(tag.String(), func(t *testing.T) {
			s := startScript(t, Config{Workers: 3})
			s.c.Send(0, comm.Message{From: 3, Tag: tag, Payload: []byte("not gob")})
			s.settle()
			s.send(2, comm.TagTerminated, done(1))
			_, evs, tags := s.finish()
			want := []string{
				"run.start r0 s0 d0 p0 o3 \"\"",
				"dispatch r3 s0 d-Inf p0 o0 \"\"",
				"solver.busy r3 s0 d0 p0 o0 \"\"",
				"collect.start r0 s0 d0 p0 o0 \"\"",
				"comm.peerdown r3 s0 d0 p0 o0 \"\"",
				"dispatch r2 s0 d-Inf p0 o0 \"\"",
				"solver.busy r2 s0 d0 p0 o0 \"\"",
				"outcome r2 s0 d0 p0 o0 \"completed\"",
				"solver.idle r2 s0 d0 p0 o0 \"\"",
				"dual r0 s0 d+Inf p+Inf o0 \"\"",
				"run.end r0 s0 d+Inf p+Inf o0 \"\"",
			}
			if got := strings.Join(evs, "\n"); got != strings.Join(want, "\n") {
				t.Errorf("events:\n%s", goldenList(evs))
			}
			wantTags := []string{"r1: termination", "r2: subproblem startCollect termination", "r3: subproblem startCollect termination"}
			if got := strings.Join(tags, "\n"); got != strings.Join(wantTags, "\n") {
				t.Errorf("tags:\n%s", goldenList(tags))
			}
		})
	}
}

// goldenList renders got as a Go string-slice literal for a failure
// message.
func goldenList(got []string) string {
	var b strings.Builder
	for _, g := range got {
		fmt.Fprintf(&b, "\t%q,\n", g)
	}
	return b.String()
}
