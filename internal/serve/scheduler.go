package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
)

// scheduler owns the solve workers: maxConcurrent goroutines popping
// jobs off the priority queue and driving each through its lifecycle
// (deadline admission check → presolve via the cache → in-process
// ug coordinator run → terminal transition).
type scheduler struct {
	q     *queue
	cache *PresolveCache
	reg   *obs.Registry

	defaultWorkers int
	running        *obs.Gauge // serve.jobs.running

	// debugDir is the parent directory for per-job forensics bundles;
	// empty disables capture. capture is the server-level capturer a
	// panicking solve lane bundles through (no per-job recorder — the
	// panic stack and profiles are process-wide evidence).
	debugDir string
	capture  *obs.Capturer

	ctrDone      *obs.Counter // serve.jobs.done
	ctrFailed    *obs.Counter // serve.jobs.failed
	ctrCancelled *obs.Counter // serve.jobs.cancelled
	ctrDeadline  *obs.Counter // serve.jobs.deadline

	// solve runs one presolved model under a ug configuration; tests
	// swap it for a controllable fake, production uses realSolve.
	solve solveFunc

	wg sync.WaitGroup
}

// solveFunc abstracts the actual parallel solve for tests.
type solveFunc func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error)

// realSolve drives the existing core/ug machinery.
func realSolve(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
	res, _, err := core.SolveWithPresolved(app, prob, offset, cfg)
	return res, err
}

func newScheduler(q *queue, cache *PresolveCache, reg *obs.Registry, maxConcurrent, defaultWorkers int, debugDir string) *scheduler {
	if defaultWorkers < 1 {
		defaultWorkers = 2
	}
	s := &scheduler{
		q:              q,
		cache:          cache,
		reg:            reg,
		defaultWorkers: defaultWorkers,
		debugDir:       debugDir,
		capture:        &obs.Capturer{Dir: debugDir, Registry: reg},
		running:        reg.Gauge("serve.jobs.running"),
		ctrDone:        reg.Counter("serve.jobs.done"),
		ctrFailed:      reg.Counter("serve.jobs.failed"),
		ctrCancelled:   reg.Counter("serve.jobs.cancelled"),
		ctrDeadline:    reg.Counter("serve.jobs.deadline"),
		solve:          realSolve,
	}
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	s.wg.Add(maxConcurrent)
	for i := 0; i < maxConcurrent; i++ {
		go s.worker()
	}
	return s
}

// worker is one solve lane: pop until the queue closes. A panic in a
// solve leaves a forensics bundle and then crashes the daemon as before
// — a corrupted lane must not keep serving jobs silently.
func (s *scheduler) worker() {
	defer s.wg.Done()
	defer s.capture.CapturePanic("serve.worker")
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// wait blocks until every worker lane exited (the queue was drained).
func (s *scheduler) wait() { s.wg.Wait() }

// countTerminal bumps the per-outcome counter for a terminal state.
func (s *scheduler) countTerminal(st State) {
	switch st {
	case StateDone:
		s.ctrDone.Inc()
	case StateFailed:
		s.ctrFailed.Inc()
	case StateCancelled:
		s.ctrCancelled.Inc()
	case StateDeadline:
		s.ctrDeadline.Inc()
	}
}

// runJob drives one job from queued to a terminal state. The stop
// channel fuses the job's two asynchronous interrupts — client cancel
// and deadline expiry — into the single cooperative stop signal the
// coordinator understands; cause records which one fired first.
func (s *scheduler) runJob(j *Job) {
	// Cancelled while queued but not yet removed, or deadline already
	// passed: resolve without starting.
	select {
	case <-j.cancelCh:
		if j.transition(StateCancelled) {
			s.countTerminal(StateCancelled)
		}
		return
	default:
	}
	if dl, ok := j.Deadline(); ok && !time.Now().Before(dl) {
		s.captureJobBundle(j, StateDeadline)
		if j.transition(StateDeadline) {
			s.countTerminal(StateDeadline)
		}
		return
	}
	if !j.transition(StateRunning) {
		return // lost a race with a terminal transition
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	var (
		stop     = make(chan struct{})
		stopOnce sync.Once
		causeMu  sync.Mutex
		cause    State
	)
	fire := func(st State) {
		causeMu.Lock()
		if cause == "" {
			cause = st
		}
		causeMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}
	firedCause := func() State {
		causeMu.Lock()
		defer causeMu.Unlock()
		return cause
	}
	runDone := make(chan struct{})
	defer close(runDone)
	if dl, ok := j.Deadline(); ok {
		t := time.AfterFunc(time.Until(dl), func() { fire(StateDeadline) })
		defer t.Stop()
	}
	go func() {
		select {
		case <-j.cancelCh:
			fire(StateCancelled)
		case <-runDone:
		}
	}()

	// The bundle is written and attached before the terminal edge is
	// published: transition closes done, and a client that sees a failed
	// job must also see its debug pointer. Should the edge lose to
	// another terminal one, the bundle just stays on disk.
	finish := func(st State) {
		s.captureJobBundle(j, st)
		if j.transition(st) {
			s.countTerminal(st)
		}
	}

	key, app, err := buildApp(&j.Spec)
	if err != nil {
		j.setErr(err.Error())
		finish(StateFailed)
		return
	}

	workers := j.Spec.Workers
	if workers < 1 {
		workers = s.defaultWorkers
	}
	// Every job that gets this far leaves with a Result unless it fails
	// (a failed job leaves with an error): it starts out as "interrupted,
	// nothing known" and each phase fills in what it learns, so a stop
	// that lands mid-presolve still reports the cache outcome and the
	// time spent.
	result := &Result{Status: "interrupted", Cache: "miss", Workers: workers}

	presolveStart := time.Now()
	prob, offset, hit, err := s.cache.Get(stop, key, func() (*scip.Prob, float64, error) {
		return core.Presolve(app)
	})
	if hit {
		// The reduction phase was skipped; any time that passed was the
		// wait for the cached entry, not presolve work by this job.
		result.Cache = "hit"
	} else {
		result.PresolveSeconds = time.Since(presolveStart).Seconds()
	}
	if err != nil {
		if err == errStopped {
			// Cancel or deadline fired during presolve; the presolve
			// itself keeps running and will serve later submissions.
			j.setResult(result)
			finish(s.stoppedState(firedCause()))
			return
		}
		j.setErr(fmt.Sprintf("presolve: %v", err))
		finish(StateFailed)
		return
	}

	tracer := obs.NewTracer(j.bus)
	cfg := ug.Config{
		Workers:   workers,
		TimeLimit: j.Spec.TimeLimitSec,
		Cancel:    stop,
		Trace:     tracer,
		Metrics:   s.reg,
	}
	if j.Spec.Racing {
		cfg.RampUp = ug.RampUpRacing
		cfg.RacingTime = 0.3
	}
	solveStart := time.Now()
	res, err := s.solve(app, prob, offset, cfg)
	solveSec := time.Since(solveStart).Seconds()
	// Close the tracer before the terminal transition: its sink is the
	// job bus, so closing here flushes the final events to subscribers
	// (transition closes the bus again, which is a no-op).
	_ = tracer.Close()
	if err != nil {
		j.setErr(fmt.Sprintf("solve: %v", err))
		finish(StateFailed)
		return
	}

	result.Nodes = res.Stats.TotalNodes
	result.SolveSeconds = solveSec
	result.DualBound = finiteOr0(res.DualBound + offset)
	switch {
	case res.Optimal:
		result.Status = "optimal"
		result.Objective = finiteOr0(res.Obj + offset)
	case res.Infeasible:
		result.Status = "infeasible"
	default:
		result.Objective = finiteOr0(res.Stats.FinalPrimal + offset)
	}
	j.setResult(result)

	if st := firedCause(); st != "" && !res.Optimal && !res.Infeasible {
		// The solve was interrupted by cancel or deadline (not by its
		// own time limit): the interrupt wins the terminal state.
		finish(s.stoppedState(st))
		return
	}
	finish(StateDone)
}

// captureJobBundle writes a forensics bundle when a job fails or blows
// its deadline: the job's flight-recorder tail plus process profiles,
// in a per-job directory under debugDir. The bundle location is
// attached to the job record, which surfaces it in the job JSON and
// makes GET /v1/jobs/{id}/debug serve it. st is the terminal state the
// caller is about to publish.
func (s *scheduler) captureJobBundle(j *Job, st State) {
	if s.debugDir == "" || (st != StateFailed && st != StateDeadline) {
		return
	}
	bc := &obs.Capturer{
		Dir:      filepath.Join(s.debugDir, j.ID),
		Recorder: j.rec,
		Registry: s.reg,
		Extra: map[string]string{
			"job":   j.ID,
			"state": string(st),
			"name":  j.StatusView().Name,
		},
	}
	if dir, err := bc.WriteBundle("job-"+string(st), j.Err()); err == nil && dir != "" {
		j.setBundle(dir, string(st))
	}
}

// stoppedState maps a recorded stop cause to the terminal state,
// defaulting to cancelled for robustness.
func (s *scheduler) stoppedState(cause State) State {
	if cause == StateDeadline {
		return StateDeadline
	}
	return StateCancelled
}
