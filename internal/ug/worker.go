package ug

import (
	"fmt"
	"time"

	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/ug/comm"
)

// Session is the framework-side companion a base solver talks to while
// solving one subproblem (Algorithm 2's communication duties): it
// forwards solutions, emits periodic status reports, services collect
// requests and relays coordinator commands.
type Session struct {
	rank    int
	comm    comm.Comm
	initial *Solution // incumbent attached to the dispatch

	collectMode bool
	stopped     bool
	extractAll  bool

	lastStatus   time.Time
	lastShip     time.Time
	statusEvery  time.Duration
	shipEvery    time.Duration
	bestReported float64 // objective of the best solution this session reported/knows

	// trace records ParaSolver-side events (node shipping, solution
	// reports). Nil disables it; the Poll hot path then pays only a
	// pointer nil-check per event site.
	trace *obs.Tracer
}

func newSession(rank int, c comm.Comm, initial *Solution, statusSec, shipSec float64) *Session {
	statusEvery := 20 * time.Millisecond
	if statusSec > 0 {
		statusEvery = time.Duration(statusSec * float64(time.Second))
	}
	shipEvery := 2 * time.Millisecond
	if shipSec > 0 {
		shipEvery = time.Duration(shipSec * float64(time.Second))
	}
	s := &Session{
		rank:        rank,
		comm:        c,
		initial:     initial,
		statusEvery: statusEvery,
		shipEvery:   shipEvery,
		bestReported: func() float64 {
			if initial != nil {
				return initial.Obj
			}
			return inf
		}(),
	}
	return s
}

// InitialIncumbent returns the solution attached to the dispatch, if any.
func (s *Session) InitialIncumbent() *Solution { return s.initial }

// Poll services the message queue and returns the coordinator's
// directives. The base solver must call it at least once per node.
func (s *Session) Poll(st StatusReport) Command {
	var cmd Command
	for {
		m, ok := s.comm.TryRecv(s.rank)
		if !ok {
			break
		}
		switch m.Tag {
		case comm.TagSolution:
			var sol Solution
			dec(m.Payload, &sol)
			if sol.Obj < s.bestReported {
				s.bestReported = sol.Obj
			}
			cmd.Solutions = append(cmd.Solutions, &sol)
		case comm.TagStartCollect:
			s.collectMode = true
		case comm.TagStopCollect:
			s.collectMode = false
		case comm.TagExtractAll:
			s.extractAll = true
		case comm.TagStop, comm.TagTermination, comm.TagPeerDown:
			// PeerDown on a worker means the coordinator process is gone:
			// there is nobody to report to, so stop like a TagStop.
			s.stopped = true
		}
	}
	// A closed transport (coordinator lost, process teardown) delivers
	// nothing further; keep solving only while someone is listening.
	if !s.stopped {
		if cc, ok := s.comm.(interface{ Closed() bool }); ok && cc.Closed() {
			s.stopped = true
		}
	}
	now := time.Now()
	if now.Sub(s.lastStatus) >= s.statusEvery {
		s.lastStatus = now
		s.comm.Send(0, comm.Message{From: s.rank, Tag: comm.TagStatus, Payload: enc(st)})
	}
	if s.collectMode && st.Open > 1 && now.Sub(s.lastShip) >= s.shipEvery {
		s.lastShip = now
		cmd.WantNode = true
	}
	cmd.Stop = s.stopped
	cmd.ExtractAll = s.extractAll
	return cmd
}

// ShipNode sends one open node to the coordinator (collect mode or
// racing-winner extraction).
func (s *Session) ShipNode(sub Subproblem) {
	s.trace.Emit(obs.Event{Kind: obs.KindWorkerShip, Rank: s.rank, Dual: sub.Bound, Open: sub.Depth})
	s.comm.Send(0, comm.Message{From: s.rank, Tag: comm.TagNode, Payload: enc(sub)})
}

// FoundSolution reports a newly found primal solution if it improves on
// everything this session has seen.
func (s *Session) FoundSolution(sol Solution) {
	if num.Geq(sol.Obj, s.bestReported, num.ZeroTol) {
		return
	}
	s.bestReported = sol.Obj
	s.trace.Emit(obs.Event{Kind: obs.KindWorkerSol, Rank: s.rank, Primal: sol.Obj})
	s.comm.Send(0, comm.Message{From: s.rank, Tag: comm.TagSolution, Payload: enc(sol)})
}

// runWorker is the ParaSolver main loop (the paper's Algorithm 2): wait
// for work, solve it while communicating, report termination; exit on
// the termination tag. One WorkerSolver per settings index is created on
// first use and kept for the rank's whole run, so base-solver state
// survives between subproblems. trace may be nil (tracing disabled).
// testPanic makes the solver panic on its first received subproblem —
// the fault-injection hook behind Config.TestPanicRank.
func runWorker(rank int, c comm.Comm, factory SolverFactory, trace *obs.Tracer, testPanic bool) {
	solvers := map[int]WorkerSolver{}
	for {
		m := c.Recv(rank)
		switch m.Tag {
		case comm.TagSubproblem, comm.TagRacing:
			if testPanic {
				panic(fmt.Sprintf("ug: test-injected worker panic (rank %d)", rank))
			}
			var w workMsg
			dec(m.Payload, &w)
			solver, ok := solvers[w.SettingsIdx]
			if !ok {
				solver = factory.CreateWorker(w.SettingsIdx)
				solvers[w.SettingsIdx] = solver
			}
			sess := newSession(rank, c, w.Incumbent, w.StatusSec, w.ShipSec)
			sess.trace = trace
			out := solver.Solve(&w.Sub, sess)
			c.Send(0, comm.Message{From: rank, Tag: comm.TagTerminated, Payload: enc(out)})
		case comm.TagTermination, comm.TagPeerDown:
			// Termination, or the transport reporting the coordinator
			// process gone — either way this solver's run is over.
			return
		case comm.TagStop, comm.TagStartCollect, comm.TagStopCollect, comm.TagSolution:
			// Stale commands between subproblems: solutions are re-attached
			// by the coordinator on the next dispatch; ignore the rest.
		}
	}
}

// RunWorker drives one ParaSolver against an arbitrary communicator —
// the entry point a worker *process* in a distributed (comm/net) run
// calls after dialing the coordinator. It blocks until the coordinator
// sends the termination tag or the transport reports the coordinator
// gone. The factory must be presolved locally first (each process calls
// GlobalPresolve on its own copy of the instance); trace may be nil.
func RunWorker(rank int, c comm.Comm, factory SolverFactory, trace *obs.Tracer) {
	runWorker(rank, c, factory, trace, false)
}
