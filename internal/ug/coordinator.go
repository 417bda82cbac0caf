package ug

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/num"
	"repro/internal/obs"
	"repro/internal/ug/comm"
)

// Config steers one UG run.
type Config struct {
	Workers int       // number of ParaSolvers
	Comm    comm.Comm // nil: ChannelComm(Workers+1)

	// RemoteWorkers marks the workers as separate OS processes reached
	// through Comm (a comm/net endpoint): Run then drives only the
	// coordinator loop and spawns no worker goroutines — each worker
	// process calls RunWorker against its own endpoint.
	RemoteWorkers bool

	// RampUp selects normal or racing ramp-up. A race ends after
	// RacingTime seconds, or earlier once a racer reports racingNodeLimit
	// open nodes.
	RampUp     RampUpMode
	RacingTime float64 // seconds of racing before a winner is chosen (default 0.25)

	TimeLimit float64 // seconds; 0 = none

	// Cancel, when non-nil, requests a cooperative stop once the channel
	// is closed: the coordinator interrupts all running solvers exactly
	// as if the time limit had fired, and the run finishes as
	// interrupted with a complete trace (run.start … run.end). This is
	// how a serving layer cancels a job and how the CLIs translate
	// SIGINT/SIGTERM into a graceful wind-down.
	Cancel <-chan struct{}

	CheckpointPath  string  // non-empty enables checkpointing
	CheckpointEvery float64 // seconds between checkpoints (default 1s)
	RestartFrom     string  // checkpoint file to restore

	// InitialSolution seeds the incumbent (the paper's hc10p runs re-start
	// from scratch with the previous best solution attached).
	InitialSolution *Solution

	// StatusInterval/ShipInterval tune worker communication cadence in
	// seconds (zero keeps the defaults: 20ms status, 2ms shipping).
	StatusInterval, ShipInterval float64

	// Trace receives the coordination event stream (nil disables tracing
	// at zero cost). Events are ordered by the coordinator loop tick —
	// a logical clock that never feeds back into solver decisions.
	Trace *obs.Tracer

	// Metrics receives live counters/gauges (pool depth, mailbox depth,
	// transfer bytes). Nil disables collection at zero cost.
	Metrics *obs.Registry

	// Capture, when armed, writes a post-mortem forensics bundle at the
	// run's failure edges: a panic in the coordinator or an in-process
	// worker goroutine (recover-and-rethrow — crash semantics are
	// unchanged, but the bundle lands first), and any error outcome of
	// the run itself. Nil/disarmed is a no-op.
	Capture *obs.Capturer

	// TestPanicRank, when > 0, makes that worker rank panic on its first
	// received subproblem — the fault-injection hook the post-mortem
	// smoke test uses to exercise CapturePanic on a real solve. Never
	// set outside tests and scripts/postmortem_smoke.sh.
	TestPanicRank int
}

// racingNodeLimit ends a race early: the first racer to report this many
// open nodes has a tree worth distributing.
const racingNodeLimit = 50

// RunStats aggregates the statistics the paper's tables report.
type RunStats struct {
	Time               float64
	RootTime           float64
	MaxActive          int
	FirstMaxActiveTime float64
	Dispatched         int64 // subproblems transferred LC → ParaSolvers
	Collected          int64 // nodes shipped ParaSolvers → LC
	TotalNodes         int64 // branch-and-bound nodes processed overall
	OpenAtEnd          int   // open nodes (workers + pool) when stopping
	PoolAtStart        int   // primitive nodes restored from a checkpoint
	InitialPrimal      float64
	InitialDual        float64
	FinalPrimal        float64
	FinalDual          float64
	IdleRatio          []float64 // per worker (rank-1 indexed)
	RacingWinner       int       // winning settings index; -1 when not raced
	RacingWinnerName   string
	SolvedInRacing     bool
	Restarted          bool
	CheckpointErrors   int64 // checkpoint saves that failed (best-effort, but observable)

	// Extended observability counters (the signals the paper's figures
	// are drawn from; printed by the CLIs' -stats tables).
	LPIterations   int64   // LP simplex iterations summed over all solvers
	CutsAdded      int64   // cutting planes added summed over all solvers
	SolsFound      int64   // incumbents installed summed over all solvers
	PropFixings    int64   // bound-tightening propagator calls summed over all solvers
	TransferBytes  int64   // payload bytes moved LC ↔ ParaSolvers
	MaxPoolDepth   int     // deepest the coordinator pool ever got
	CollectPhases  int     // number of collect-mode intervals entered
	StatusReports  int64   // periodic status messages received
	Ticks          int64   // coordinator event-loop iterations (logical time)
	PerWorkerNodes []int64 // branch-and-bound nodes per worker (rank-1 indexed)

	// Phases is the wall-time-per-phase breakdown: Presolve is the
	// coordinator's global presolve, every other phase is summed over
	// the subproblem outcomes the workers report.
	Phases PhaseTimes
}

// Result is the outcome of a UG run.
type Result struct {
	Optimal    bool
	Infeasible bool
	Obj        float64
	Sol        *Solution
	DualBound  float64
	Stats      RunStats
}

// subHeap orders the coordinator pool by dual bound (best first).
type subHeap []*Subproblem

func (h subHeap) Len() int            { return len(h) }
func (h subHeap) Less(i, j int) bool  { return h[i].Bound < h[j].Bound }
func (h subHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *subHeap) Push(x interface{}) { *h = append(*h, x.(*Subproblem)) }
func (h *subHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// rankState is what the coordinator knows about one ParaSolver rank.
type rankState struct {
	sub      *Subproblem   // in flight; nil while the rank is idle
	dead     bool          // lost to transport failure (TagPeerDown)
	bound    float64       // last dual bound reported for sub
	open     int           // last open-node count reported for sub
	settings int           // settings index sub was dispatched with
	since    time.Time     // when sub was dispatched
	busy     time.Duration // time spent on subproblems already released
}

// racePhase is where a racing ramp-up stands.
type racePhase int

const (
	raceOff     racePhase = iota // normal coordination
	raceRunning                  // every rank races on the root, no winner yet
	raceWindup                   // winner chosen; waiting for extraction and stops
)

// coordinator is the LoadCoordinator state (the paper's Algorithm 1).
type coordinator struct {
	cfg     Config
	comm    comm.Comm
	factory SolverFactory

	pool subHeap
	// ranks is indexed by rank (entry 0, the coordinator, stays empty),
	// so every walk over the workers visits them in ascending rank order:
	// racing tie-breaks, checkpoint layout and message order never depend
	// on iteration randomness.
	ranks  []rankState
	active int   // ranks with a subproblem in flight
	dead   int   // ranks lost to transport failure
	idle   []int // LIFO: the rank that finished last gets the next subproblem

	incumbent *Solution
	nextSubID int64

	collectMode  bool
	race         racePhase
	rootRequeued bool // the shared racing root is back in the pool
	winnerRank   int
	stopping     bool

	start    time.Time
	lastCkpt time.Time
	rootRank int

	stats RunStats

	// Observability state. trace/metrics may be nil (disabled); every
	// use is a nil-safe no-op then. tick is the logical clock: it
	// advances once per event-loop iteration and orders the trace, but
	// is never consulted by coordination decisions.
	trace     *obs.Tracer
	tick      int64
	lastDual  float64 // last dual bound written to the trace
	poolGauge *obs.Gauge
	// Outcome distributions for the -stats table (nil-safe when metrics
	// are disabled): LP iterations and busy seconds per subproblem.
	lpItersHist *obs.Histogram
	subSeconds  *obs.Histogram
}

// Run executes a complete UG solve: global presolve in the coordinator,
// ramp-up, coordinated parallel search, and shutdown.
func Run(factory SolverFactory, cfg Config) (*Result, error) {
	// A panic anywhere in the coordinator path leaves a forensics bundle
	// before the crash propagates unchanged.
	defer cfg.Capture.CapturePanic("ug.coordinator")
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	c := cfg.Comm
	if c == nil {
		c = comm.NewChannelComm(cfg.Workers + 1)
	}
	if c.Size() != cfg.Workers+1 {
		return nil, fmt.Errorf("ug: comm size %d != workers+1 = %d", c.Size(), cfg.Workers+1)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1.0
	}
	if cfg.RacingTime <= 0 {
		cfg.RacingTime = 0.25
	}

	// Mailbox depth gauges: both built-in communicators support
	// instrumentation; custom Comms may opt in with the same method.
	if cfg.Metrics != nil {
		if ic, ok := c.(interface{ Instrument(*obs.Registry) }); ok {
			ic.Instrument(cfg.Metrics)
		}
	}

	var wg sync.WaitGroup
	if !cfg.RemoteWorkers {
		for rank := 1; rank <= cfg.Workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				defer cfg.Capture.CapturePanic("ug.worker")
				runWorker(rank, c, factory, cfg.Trace, cfg.TestPanicRank == rank)
			}(rank)
		}
	}

	co := &coordinator{
		cfg:         cfg,
		comm:        c,
		factory:     factory,
		ranks:       make([]rankState, cfg.Workers+1),
		winnerRank:  -1,
		rootRank:    -1,
		trace:       cfg.Trace,
		lastDual:    math.Inf(-1),
		poolGauge:   cfg.Metrics.Gauge("ug.pool.depth"),
		lpItersHist: cfg.Metrics.Histogram("ug.outcome.lpiters", []float64{10, 100, 1e3, 1e4, 1e5}),
		subSeconds:  cfg.Metrics.Histogram("ug.subproblem.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60}),
	}
	co.stats.RacingWinner = -1
	co.stats.PerWorkerNodes = make([]int64, cfg.Workers)
	res, err := co.run()
	// Shut every worker down and wait for exit.
	for rank := 1; rank <= cfg.Workers; rank++ {
		c.Send(rank, comm.Message{From: 0, Tag: comm.TagTermination})
	}
	wg.Wait()
	if err != nil && cfg.Capture.Armed() {
		// The error outcome is a failure edge too: capture the final
		// event window and profiles before the caller tears down.
		_, _ = cfg.Capture.WriteBundle("error", err.Error())
	}
	return res, err
}

func (co *coordinator) run() (*Result, error) {
	co.start = time.Now()
	co.lastCkpt = co.start
	co.trace.Emit(obs.Event{Kind: obs.KindRunStart, Open: co.cfg.Workers})

	presolveStart := time.Now()
	root, initial, err := co.factory.GlobalPresolve()
	co.stats.Phases.Presolve = time.Since(presolveStart).Seconds()
	if err != nil {
		return nil, fmt.Errorf("ug: global presolve: %w", err)
	}
	if initial != nil {
		co.incumbent = initial
	}
	if co.cfg.InitialSolution != nil &&
		(co.incumbent == nil || co.cfg.InitialSolution.Obj < co.incumbent.Obj) {
		co.incumbent = co.cfg.InitialSolution
	}

	// Restore from checkpoint or seed the pool with the root.
	if co.cfg.RestartFrom != "" {
		ck, err := loadCheckpoint(co.cfg.RestartFrom)
		if err != nil {
			return nil, fmt.Errorf("ug: restart: %w", err)
		}
		for i := range ck.Pool {
			sub := ck.Pool[i]
			co.pushPool(&sub)
		}
		if ck.Incumbent != nil && (co.incumbent == nil || ck.Incumbent.Obj < co.incumbent.Obj) {
			co.incumbent = ck.Incumbent
		}
		co.stats.Restarted = true
		co.stats.PoolAtStart = len(co.pool)
		co.trace.Emit(obs.Event{Kind: obs.KindCkptRestore, Open: len(co.pool), Str: co.cfg.RestartFrom})
	} else {
		co.pushPool(&Subproblem{ID: 0, Bound: math.Inf(-1), Payload: root})
	}
	co.stats.InitialPrimal = co.primalBound()
	co.stats.InitialDual = co.dualBound()

	// Ramp-up.
	if co.cfg.RampUp == RampUpRacing && !co.stats.Restarted && len(co.pool) == 1 {
		co.race = raceRunning
		co.trace.Emit(obs.Event{Kind: obs.KindRacingStart, Open: co.factory.NumSettings()})
		rootSub := co.pool[0]
		co.pool = nil
		for rank := 1; rank <= co.cfg.Workers; rank++ {
			co.dispatchTo(rank, rootSub, comm.TagRacing, (rank-1)%co.factory.NumSettings())
		}
	} else {
		for rank := 1; rank <= co.cfg.Workers; rank++ {
			co.idle = append(co.idle, rank)
		}
		co.dispatchAll()
	}

	// Main event loop (Algorithm 1 with polling for timers). Each
	// iteration advances the logical clock one tick; the tick orders the
	// trace but never influences a coordination decision.
	for {
		co.tick++
		co.trace.SetTick(co.tick)
		if msg, ok := co.comm.TryRecv(0); ok {
			co.handle(msg)
			co.traceDualBound()
		} else {
			// An empty mailbox on a closed transport never refills: exit
			// as an interrupted run instead of spinning forever (tests
			// and process teardown close the comm under a live loop).
			if cc, ok := co.comm.(interface{ Closed() bool }); ok && cc.Closed() {
				co.abortClosed()
				return co.finalize(), nil
			}
			time.Sleep(200 * time.Microsecond)
		}
		now := time.Now()
		elapsed := now.Sub(co.start).Seconds()

		if co.race == raceRunning {
			co.maybeEndRacing(elapsed)
		}
		if co.race == raceOff {
			co.adjustCollectMode()
			co.dispatchAll()
		}
		if co.cfg.CheckpointPath != "" && now.Sub(co.lastCkpt).Seconds() >= co.cfg.CheckpointEvery {
			co.lastCkpt = now
			err := co.saveCheckpoint()
			if err != nil {
				co.stats.CheckpointErrors++
			}
			co.traceCheckpoint(err)
		}
		if !co.stopping && co.cfg.TimeLimit > 0 && elapsed > co.cfg.TimeLimit {
			co.beginStop()
		}
		if !co.stopping && co.cfg.Cancel != nil {
			select {
			case <-co.cfg.Cancel:
				co.beginStop()
			default:
			}
		}
		if co.finished() {
			return co.finalize(), nil
		}
		if co.dead >= co.cfg.Workers {
			// Every worker is gone and work remains: nothing can make
			// progress, so fail loudly rather than hang. The requeued
			// subproblems are still in the pool (and any checkpoint).
			return nil, fmt.Errorf("ug: all %d workers lost to transport failure with %d subproblems unsolved",
				co.cfg.Workers, len(co.pool))
		}
	}
}

// abortClosed winds the run down after the transport was closed under
// it: every in-flight subproblem returns to the pool as a primitive
// node so the final statistics (and a checkpoint, if enabled) still
// cover the whole search, and the result reports an interrupted run.
func (co *coordinator) abortClosed() {
	co.stopping = true
	co.trace.Emit(obs.Event{Kind: obs.KindRunStop, Open: co.active})
	for rank := range co.ranks {
		sub, _ := co.release(rank)
		co.requeue(rank, sub)
	}
	co.race = raceOff
}

// traceDualBound writes a dual-bound event when the global bound moved
// since the last one. The recomputation is O(pool + workers), so it only
// runs when tracing is enabled.
func (co *coordinator) traceDualBound() {
	if !co.trace.Enabled() {
		return
	}
	d := co.dualBound()
	if d == co.lastDual { //lint:ignore floatcmp change detection must not hide small bound movements behind a tolerance
		return
	}
	co.lastDual = d
	co.trace.Emit(obs.Event{Kind: obs.KindDualBound, Dual: d, Primal: co.primalBound()})
}

// traceCheckpoint records a checkpoint save (or its failure).
func (co *coordinator) traceCheckpoint(err error) {
	if !co.trace.Enabled() {
		return
	}
	ev := obs.Event{Kind: obs.KindCkptSave, Open: len(co.pool) + co.active}
	if err != nil {
		ev.Str = err.Error()
	}
	co.trace.Emit(ev)
}

// pushPool adds a subproblem to the coordinator pool.
func (co *coordinator) pushPool(sub *Subproblem) {
	if co.incumbent != nil && num.Geq(sub.Bound, co.incumbent.Obj, num.ZeroTol) {
		return // dominated
	}
	heap.Push(&co.pool, sub)
	if len(co.pool) > co.stats.MaxPoolDepth {
		co.stats.MaxPoolDepth = len(co.pool)
	}
	co.poolGauge.Set(int64(len(co.pool)))
}

// requeue returns the unfinished subproblem rank held (nil: none) to the
// pool as a primitive node. Its bound rises to the rank's last reported
// one when that is finite and higher: the rank's dual bound holds for
// the whole subtree, and the root's dispatch bound is −Inf. During
// racing every rank holds the same root, so it goes back at most once,
// with the best bound any racer still holding it has reported.
func (co *coordinator) requeue(rank int, sub *Subproblem) {
	if sub == nil {
		return
	}
	if co.race != raceOff {
		if co.rootRequeued {
			return
		}
		co.rootRequeued = true
		for _, r := range co.ranks {
			if r.sub == sub {
				raiseBound(sub, r.bound)
			}
		}
	}
	raiseBound(sub, co.ranks[rank].bound)
	co.pushPool(sub)
}

// raiseBound lifts sub's bound to b when b is finite and higher.
func raiseBound(sub *Subproblem, b float64) {
	if b > sub.Bound && !math.IsInf(b, 1) {
		sub.Bound = b
	}
}

// release is where a rank gives up its subproblem — finished,
// interrupted, lost with its process, or abandoned with a closed
// transport. It books the busy time and returns the subproblem (nil if
// the rank held none) with the time spent on it.
func (co *coordinator) release(rank int) (*Subproblem, time.Duration) {
	r := &co.ranks[rank]
	sub := r.sub
	r.sub, r.open = nil, 0
	if sub == nil {
		return nil, 0
	}
	d := time.Since(r.since)
	r.busy += d
	co.active--
	return sub, d
}

// dispatchTo sends one subproblem to a specific worker.
func (co *coordinator) dispatchTo(rank int, sub *Subproblem, tag comm.Tag, settingsIdx int) {
	r := &co.ranks[rank]
	r.sub, r.bound, r.open, r.settings, r.since = sub, sub.Bound, 1, settingsIdx, time.Now()
	co.active++
	co.stats.Dispatched++
	if co.rootRank < 0 {
		co.rootRank = rank
	}
	if co.active > co.stats.MaxActive {
		co.stats.MaxActive = co.active
		co.stats.FirstMaxActiveTime = time.Since(co.start).Seconds()
	}
	payload := enc(workMsg{
		Sub:         *sub,
		Incumbent:   co.incumbent,
		SettingsIdx: settingsIdx,
		StatusSec:   co.cfg.StatusInterval,
		ShipSec:     co.cfg.ShipInterval,
	})
	co.stats.TransferBytes += int64(len(payload))
	if co.trace.Enabled() {
		ev := obs.Event{Kind: obs.KindDispatch, Rank: rank, Sub: sub.ID, Dual: sub.Bound}
		if tag == comm.TagRacing {
			ev.Str = co.factory.SettingsName(settingsIdx)
		}
		co.trace.Emit(ev)
		co.trace.Emit(obs.Event{Kind: obs.KindSolverBusy, Rank: rank})
	}
	co.comm.Send(rank, comm.Message{From: 0, Tag: tag, Payload: payload})
	if co.collectMode {
		co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagStartCollect})
	}
}

// sendRunning sends one message to every rank with a subproblem in
// flight except skip, in ascending rank order.
func (co *coordinator) sendRunning(tag comm.Tag, payload []byte, skip int) {
	for rank := range co.ranks {
		if co.ranks[rank].sub != nil && rank != skip {
			co.comm.Send(rank, comm.Message{From: 0, Tag: tag, Payload: payload})
		}
	}
}

// dispatchAll matches idle workers with pooled subproblems.
func (co *coordinator) dispatchAll() {
	if co.stopping {
		return
	}
	for len(co.idle) > 0 && len(co.pool) > 0 {
		rank := co.idle[len(co.idle)-1]
		co.idle = co.idle[:len(co.idle)-1]
		sub := heap.Pop(&co.pool).(*Subproblem)
		co.poolGauge.Set(int64(len(co.pool)))
		if co.incumbent != nil && num.Geq(sub.Bound, co.incumbent.Obj, num.ZeroTol) {
			co.idle = append(co.idle, rank)
			continue
		}
		co.dispatchTo(rank, sub, comm.TagSubproblem, 0)
	}
}

// adjustCollectMode implements the paper's dynamic load balancing: when
// the pool holds fewer subproblems than there are workers the
// coordinator asks active solvers to ship heavy subproblems; once it
// holds 2·Workers+1 it stops the collection.
func (co *coordinator) adjustCollectMode() {
	if co.stopping {
		return
	}
	if !co.collectMode && len(co.pool) < co.cfg.Workers && co.active > 0 {
		co.collectMode = true
		co.stats.CollectPhases++
		co.trace.Emit(obs.Event{Kind: obs.KindCollectStart, Open: len(co.pool)})
		co.sendRunning(comm.TagStartCollect, nil, -1)
	} else if co.collectMode && len(co.pool) >= 2*co.cfg.Workers+1 {
		co.collectMode = false
		co.trace.Emit(obs.Event{Kind: obs.KindCollectStop, Open: len(co.pool)})
		co.sendRunning(comm.TagStopCollect, nil, -1)
	}
}

// maybeEndRacing checks the racing termination criteria and, when met,
// declares a winner: best dual bound, ties broken by more open nodes,
// then by the lower rank.
func (co *coordinator) maybeEndRacing(elapsed float64) {
	trigger := elapsed >= co.cfg.RacingTime
	best := -1
	for rank := 1; rank < len(co.ranks); rank++ {
		r := &co.ranks[rank]
		trigger = trigger || r.open >= racingNodeLimit
		if r.sub == nil {
			continue
		}
		if best < 0 || num.Gt(r.bound, co.ranks[best].bound, num.OptTol) ||
			(num.Eq(r.bound, co.ranks[best].bound, num.OptTol) && r.open > co.ranks[best].open) {
			best = rank
		}
	}
	// best < 0: every racing solver has already terminated.
	if trigger && best >= 0 {
		co.declareWinner(best, false)
	}
}

// declareWinner ends the race in favour of rank. A winner that solved
// the instance has already released the root; any other winner is asked
// to extract all its open nodes into the pool. Every other racer stops.
func (co *coordinator) declareWinner(rank int, solved bool) {
	co.race, co.winnerRank = raceWindup, rank
	co.stats.SolvedInRacing = solved
	co.stats.RacingWinner = co.ranks[rank].settings
	co.stats.RacingWinnerName = co.factory.SettingsName(co.stats.RacingWinner)
	co.trace.Emit(obs.Event{Kind: obs.KindRacingWinner, Rank: rank,
		Sub: int64(co.stats.RacingWinner), Str: co.stats.RacingWinnerName})
	if !solved {
		co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagExtractAll})
	}
	co.sendRunning(comm.TagStop, nil, rank)
}

// beginStop interrupts all running solvers (time limit reached).
func (co *coordinator) beginStop() {
	co.stopping = true
	co.trace.Emit(obs.Event{Kind: obs.KindRunStop, Open: co.active})
	co.sendRunning(comm.TagStop, nil, -1)
}

// handle processes one incoming message.
func (co *coordinator) handle(m comm.Message) {
	if m.From < 1 || m.From >= len(co.ranks) {
		return // not a worker of this run
	}
	// A dead rank's queued solutions and collected nodes are still good
	// data; its control messages (status, terminated, a second peer-down)
	// are not — acting on them would re-admit the rank to the idle set and
	// strand the next subproblem dispatched to it.
	if co.ranks[m.From].dead && m.Tag != comm.TagSolution && m.Tag != comm.TagNode {
		return
	}
	switch m.Tag {
	case comm.TagPeerDown:
		co.handlePeerDown(m.From)
	case comm.TagSolution:
		var sol Solution
		if !co.decode(m, &sol) {
			break
		}
		co.stats.TransferBytes += int64(len(m.Payload))
		if co.incumbent == nil || num.Lt(sol.Obj, co.incumbent.Obj, num.ZeroTol) {
			co.incumbent = &sol
			co.trace.Emit(obs.Event{Kind: obs.KindIncumbent, Rank: m.From, Primal: sol.Obj})
			// Broadcast to all running solvers and prune the pool.
			co.sendRunning(comm.TagSolution, enc(sol), m.From)
			keep := co.pool[:0]
			for _, sub := range co.pool {
				if num.Lt(sub.Bound, co.incumbent.Obj, num.ZeroTol) {
					keep = append(keep, sub)
				}
			}
			co.pool = keep
			heap.Init(&co.pool)
			co.poolGauge.Set(int64(len(co.pool)))
		}
	case comm.TagNode:
		var sub Subproblem
		if !co.decode(m, &sub) {
			break
		}
		co.nextSubID++
		sub.ID = co.nextSubID
		co.stats.Collected++
		co.stats.TransferBytes += int64(len(m.Payload))
		co.trace.Emit(obs.Event{Kind: obs.KindCollectNode, Rank: m.From, Sub: sub.ID, Dual: sub.Bound})
		co.pushPool(&sub)
	case comm.TagStatus:
		var st StatusReport
		if !co.decode(m, &st) {
			break
		}
		co.ranks[m.From].bound, co.ranks[m.From].open = st.Bound, st.Open
		co.stats.StatusReports++
		co.trace.Emit(obs.Event{Kind: obs.KindStatus, Rank: m.From,
			Dual: st.Bound, Open: st.Open, Nodes: st.Nodes})
		if m.From == co.rootRank && num.ExactZero(co.stats.RootTime) && st.RootTime > 0 {
			co.stats.RootTime = st.RootTime
		}
	case comm.TagTerminated:
		var out Outcome
		if !co.decode(m, &out) {
			break
		}
		sub, d := co.release(m.From)
		co.stats.TotalNodes += out.Nodes
		co.stats.LPIterations += out.LPIterations
		co.stats.CutsAdded += out.CutsAdded
		co.stats.SolsFound += out.SolsFound
		co.stats.PropFixings += out.PropFixings
		co.stats.Phases.Add(out.Phases)
		co.lpItersHist.Observe(float64(out.LPIterations))
		co.stats.PerWorkerNodes[m.From-1] += out.Nodes
		if co.trace.Enabled() {
			label := "interrupted"
			if out.Completed {
				label = "completed"
			}
			co.trace.Emit(obs.Event{Kind: obs.KindOutcome, Rank: m.From,
				Nodes: out.Nodes, Open: out.OpenLeft, Str: label})
			co.trace.Emit(obs.Event{Kind: obs.KindSolverIdle, Rank: m.From})
		}
		if sub != nil {
			co.subSeconds.Observe(d.Seconds())
		}
		if num.ExactZero(co.stats.RootTime) && m.From == co.rootRank && out.RootTime > 0 {
			co.stats.RootTime = out.RootTime
		}
		if !out.Completed && sub != nil {
			if co.stopping {
				// The interrupted subproblem root returns to the pool as a
				// primitive node; its explored part is the restart overhead
				// the paper describes.
				co.stats.OpenAtEnd += out.OpenLeft
			}
			// A racer stopped or extracted after the winner was chosen
			// leaves nothing behind; only a stop can strand the root.
			if co.race == raceOff || co.stopping {
				co.requeue(m.From, sub)
			}
		}
		co.idle = append(co.idle, m.From)
		if out.Completed && co.race == raceRunning {
			// A racing solver finished the whole instance: stop the race.
			co.declareWinner(m.From, true)
		}
	}
	if co.race != raceOff && co.active == 0 {
		// Racing fully wound up; switch to normal coordination.
		co.race = raceOff
		co.trace.Emit(obs.Event{Kind: obs.KindRacingDone, Open: len(co.pool)})
	}
}

// decode decodes a worker's payload into out. Over a process transport
// those bytes come from another process: a payload that does not decode
// is dropped, and a sender still alive is treated as lost.
func (co *coordinator) decode(m comm.Message, out any) bool {
	if decode(m.Payload, out) == nil {
		return true
	}
	if !co.ranks[m.From].dead {
		co.handlePeerDown(m.From)
	}
	return false
}

// handlePeerDown absorbs the loss of a worker process (synthesized
// TagPeerDown from a distributed transport): the rank leaves every
// roster, its in-flight subproblem returns to the pool as a primitive
// node, and the run continues on the surviving workers. The run-loop
// all-dead check turns total loss into an error instead of a hang.
func (co *coordinator) handlePeerDown(rank int) {
	co.ranks[rank].dead = true
	co.dead++
	co.trace.Emit(obs.Event{Kind: obs.KindCommPeerDown, Rank: rank})
	sub, _ := co.release(rank)
	for i, r := range co.idle {
		if r == rank {
			co.idle = append(co.idle[:i], co.idle[i+1:]...)
			break
		}
	}
	// Every racer works on the same root: requeue it only when the search
	// would otherwise lose it — the chosen winner died, or the last racer
	// is gone.
	if co.race == raceOff || rank == co.winnerRank || co.active == 0 {
		co.requeue(rank, sub)
	}
}

// finished reports whether the run is over.
func (co *coordinator) finished() bool {
	if co.race != raceOff {
		return false
	}
	if co.stopping {
		return co.active == 0
	}
	return len(co.pool) == 0 && co.active == 0
}

// primalBound returns the incumbent objective (+Inf if none).
func (co *coordinator) primalBound() float64 {
	if co.incumbent == nil {
		return inf
	}
	return co.incumbent.Obj
}

// dualBound returns the global dual bound.
func (co *coordinator) dualBound() float64 {
	lb := inf
	for _, sub := range co.pool {
		if sub.Bound < lb {
			lb = sub.Bound
		}
	}
	for _, r := range co.ranks {
		if r.sub != nil && r.bound < lb {
			lb = r.bound
		}
	}
	if lb == inf {
		return co.primalBound()
	}
	return lb
}

// finalize assembles the Result. Every rank has released its subproblem
// by now, so the busy times are complete.
func (co *coordinator) finalize() *Result {
	total := time.Since(co.start)
	co.stats.Time = total.Seconds()
	co.stats.FinalPrimal = co.primalBound()
	co.stats.FinalDual = co.dualBound()
	co.stats.OpenAtEnd += len(co.pool)
	co.stats.IdleRatio = make([]float64, co.cfg.Workers)
	for rank := 1; rank <= co.cfg.Workers; rank++ {
		idle := 1 - co.ranks[rank].busy.Seconds()/total.Seconds()
		if idle < 0 {
			idle = 0
		}
		co.stats.IdleRatio[rank-1] = idle
	}
	if co.cfg.CheckpointPath != "" {
		err := co.saveCheckpoint()
		if err != nil {
			co.stats.CheckpointErrors++
		}
		co.traceCheckpoint(err)
	}
	co.stats.Ticks = co.tick
	co.trace.Emit(obs.Event{Kind: obs.KindRunEnd,
		Dual: co.stats.FinalDual, Primal: co.stats.FinalPrimal, Nodes: co.stats.TotalNodes})
	res := &Result{Stats: co.stats, DualBound: co.stats.FinalDual}
	if co.incumbent != nil {
		res.Obj = co.incumbent.Obj
		res.Sol = co.incumbent
	}
	// The search is complete when nothing is left to explore — including
	// when a stop request raced with the last outcome and so interrupted
	// nothing: every interrupted, lost or collected subproblem is in the
	// pool by now.
	if len(co.pool) == 0 {
		if co.incumbent != nil {
			res.Optimal = true
			res.DualBound = res.Obj
		} else {
			res.Infeasible = true
		}
	}
	return res
}
