package serve

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
)

// tinySTP is a 4-node, 3-terminal instance small enough that even the
// real pipeline solves it in microseconds; its optimum is the path
// 1-2-3-4 of weight 3.
const tinySTP = `SECTION Graph
Nodes 4
Edges 5
E 1 2 1
E 2 3 1
E 3 4 1
E 1 4 3
E 2 4 2
END
SECTION Terminals
Terminals 3
T 1
T 3
T 4
END
EOF
`

func tinySpec() Spec { return Spec{Kind: "stp", STP: tinySTP, Workers: 1} }

// newBareServer builds a server without binding HTTP — Submit/CancelJob
// exercise the queue, scheduler and FSM directly.
func newBareServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Drain(0) })
	return s
}

// blockingSolve is a solveFunc that parks until the job's cooperative
// stop fires, mimicking a long solve that honours cancellation.
func blockingSolve(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
	<-cfg.Cancel
	return &ug.Result{DualBound: math.Inf(-1)}, nil
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state (now %s)", j.ID, j.State())
	}
}

func TestTransitionEdges(t *testing.T) {
	cases := []struct {
		from, to State
		ok       bool
	}{
		{StateQueued, StateRunning, true},
		{StateQueued, StateCancelled, true},
		{StateQueued, StateDeadline, true},
		{StateQueued, StateFailed, true},
		{StateQueued, StateDone, false}, // a job cannot finish without running
		{StateRunning, StateDone, true},
		{StateRunning, StateFailed, true},
		{StateRunning, StateCancelled, true},
		{StateRunning, StateDeadline, true},
		{StateRunning, StateQueued, false}, // no re-queueing
		{StateDone, StateRunning, false},   // terminal states absorb
		{StateCancelled, StateRunning, false},
		{StateFailed, StateCancelled, false},
		{StateDeadline, StateDone, false},
	}
	for _, c := range cases {
		j := newJob("t", 1, tinySpec(), nil, nil, time.Now())
		j.state = c.from
		if got := j.transition(c.to); got != c.ok {
			t.Errorf("transition %s -> %s: got %v, want %v", c.from, c.to, got, c.ok)
		}
		if c.ok && j.State() != c.to {
			t.Errorf("transition %s -> %s: state now %s", c.from, c.to, j.State())
		}
	}
}

func TestTerminalStates(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCancelled: true, StateDeadline: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, st.Terminal(), want)
		}
	}
}

func TestCancelWhileQueued(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 1})
	s.sched.solve = blockingSolve

	running, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)

	queued, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateQueued {
		t.Fatalf("second job should sit queued behind the solve lane, got %s", st)
	}
	st, ok := s.CancelJob(queued.ID)
	if !ok || st != StateCancelled {
		t.Fatalf("CancelJob(queued) = %s, %v; want cancelled, true", st, ok)
	}
	waitDone(t, queued)
	if queued.StatusView().Result != nil {
		t.Error("cancelled-while-queued job should have no result")
	}

	s.CancelJob(running.ID)
	waitDone(t, running)
	if st := running.State(); st != StateCancelled {
		t.Fatalf("running job after cancel: %s, want cancelled", st)
	}
}

func TestCancelMidSolve(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 1})
	s.sched.solve = blockingSolve

	j, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	if _, ok := s.CancelJob(j.ID); !ok {
		t.Fatal("CancelJob: job not found")
	}
	waitDone(t, j)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state after cancel-mid-solve: %s, want cancelled", st)
	}
	// The fake solve returned an interrupted result; it must be attached.
	res := j.StatusView().Result
	if res == nil || res.Status != "interrupted" {
		t.Fatalf("cancelled job result = %+v, want interrupted", res)
	}
}

func TestDeadlineMidSolve(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 1})
	s.sched.solve = blockingSolve

	sp := tinySpec()
	sp.DeadlineSec = 0.05
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateDeadline {
		t.Fatalf("state after deadline fired mid-solve: %s, want deadline_exceeded", st)
	}
}

func TestDeadlineDuringPresolve(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 1})
	var solved atomic.Bool
	s.sched.solve = func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
		solved.Store(true)
		return &ug.Result{Optimal: true}, nil
	}

	// Pre-insert an in-flight cache entry under the job's key, so the
	// job's presolve lookup parks behind it until we release it — a
	// deterministic stand-in for a slow presolve.
	sp := tinySpec()
	sp.DeadlineSec = 0.05
	key, _, err := buildApp(&sp)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	abandoned := make(chan struct{})
	close(abandoned)
	if _, _, _, err := s.cache.Get(abandoned, key, func() (*scip.Prob, float64, error) {
		<-release
		return &scip.Prob{}, 0, nil
	}); err != errStopped {
		t.Fatalf("priming Get with fired stop: err = %v, want errStopped", err)
	}

	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateDeadline {
		t.Fatalf("state after deadline fired during presolve: %s, want deadline_exceeded", st)
	}
	if solved.Load() {
		t.Error("solve ran even though the deadline fired during presolve")
	}
	// A job that reached running leaves with a result even though the
	// stop landed before any bound existed: what it knows is the cache
	// outcome (it waited on an entry already in flight).
	if res := j.StatusView().Result; res == nil || res.Status != "interrupted" || res.Cache != "hit" || res.Workers != 1 {
		t.Errorf("result after a stop during presolve = %+v, want interrupted/hit/1 worker", res)
	}

	// The abandoned presolve still completes and lands in the cache for
	// later submissions.
	close(release)
	never := make(chan struct{})
	if _, _, hit, err := s.cache.Get(never, key, nil); err != nil || !hit {
		t.Fatalf("after release: hit=%v err=%v, want cached entry", hit, err)
	}
}

func TestDoneLifecycleRealSolve(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 1})
	j, err := s.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s (err %q), want done", st, j.StatusView().Error)
	}
	res := j.StatusView().Result
	if res == nil || res.Status != "optimal" {
		t.Fatalf("result = %+v, want optimal", res)
	}
	if res.Objective != 3 {
		t.Fatalf("objective = %v, want 3 (path 1-2-3-4)", res.Objective)
	}
	if res.Cache != "miss" {
		t.Fatalf("first submission cache = %q, want miss", res.Cache)
	}
}

// TestCancelRaceStress hammers the cancel path from the moment of
// submission: whatever interleaving wins, every job must reach a
// terminal state and no FSM invariant may trip (run with -race).
func TestCancelRaceStress(t *testing.T) {
	s := newBareServer(t, Config{MaxConcurrent: 2, QueueCap: 128})
	s.sched.solve = func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
		select {
		case <-cfg.Cancel:
		case <-time.After(time.Millisecond):
		}
		return &ug.Result{Optimal: true}, nil
	}
	var jobs []*Job
	for i := 0; i < 40; i++ {
		j, err := s.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		go s.CancelJob(j.ID)
	}
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.State(); !st.Terminal() {
			t.Fatalf("job %s finished non-terminal: %s", j.ID, st)
		}
	}
}

// The bus double-close on terminal transition must tolerate a bus that
// was never attached (queued-cancelled jobs) — guard against regressions.
func TestTerminalWithBus(t *testing.T) {
	bus := obs.NewBus(nil, nil)
	j := newJob("b", 1, tinySpec(), bus, nil, time.Now())
	if !j.transition(StateRunning) || !j.transition(StateDone) {
		t.Fatal("transitions refused")
	}
	// Closing an already-closed bus must stay a no-op.
	if err := bus.Close(); err != nil {
		t.Fatalf("second bus close: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed on terminal transition")
	}
}
