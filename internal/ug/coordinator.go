package ug

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
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

	RampUp          RampUpMode
	RacingTime      float64 // seconds of racing before a winner is chosen
	RacingNodeLimit int     // alt criterion: a solver's open nodes reach this

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

	// Pool watermarks for collect mode; zero values derive from Workers.
	CollectLow, CollectHigh int

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

// coordinator is the LoadCoordinator state (the paper's Algorithm 1).
type coordinator struct {
	cfg     Config
	comm    comm.Comm
	factory SolverFactory

	pool    subHeap
	running map[int]*Subproblem
	idle    []int
	dead    map[int]bool // ranks lost to transport failure (TagPeerDown)

	incumbent *Solution
	nextSubID int64

	workerBound map[int]float64
	workerOpen  map[int]int
	workerNodes map[int]int64

	dispatchAt map[int]time.Time
	busy       map[int]time.Duration

	collectMode        bool
	racing             bool
	racingRootRequeued bool
	racingIdx          map[int]int // rank → settings index
	winnerRank         int
	windingUp          bool // racing finished, waiting for extraction/stops
	stopping           bool

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
	if cfg.CollectLow <= 0 {
		cfg.CollectLow = cfg.Workers
	}
	if cfg.CollectHigh <= cfg.CollectLow {
		cfg.CollectHigh = 2*cfg.CollectLow + 1
	}
	if cfg.RacingTime <= 0 {
		cfg.RacingTime = 0.25
	}
	if cfg.RacingNodeLimit <= 0 {
		cfg.RacingNodeLimit = 50
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
		running:     map[int]*Subproblem{},
		dead:        map[int]bool{},
		workerBound: map[int]float64{},
		workerOpen:  map[int]int{},
		workerNodes: map[int]int64{},
		dispatchAt:  map[int]time.Time{},
		busy:        map[int]time.Duration{},
		racingIdx:   map[int]int{},
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
		co.racing = true
		co.trace.Emit(obs.Event{Kind: obs.KindRacingStart, Open: co.factory.NumSettings()})
		rootSub := co.pool[0]
		co.pool = nil
		for rank := 1; rank <= co.cfg.Workers; rank++ {
			idx := (rank - 1) % co.factory.NumSettings()
			co.racingIdx[rank] = idx
			co.dispatchTo(rank, rootSub, comm.TagRacing, idx)
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

		if co.racing && !co.windingUp {
			co.maybeEndRacing(elapsed)
		}
		if !co.racing {
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
		if len(co.dead) >= co.cfg.Workers {
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
	co.trace.Emit(obs.Event{Kind: obs.KindRunStop, Open: len(co.running)})
	for _, rank := range co.runningRanks() {
		if sub := co.running[rank]; sub != nil && (!co.racing || !co.racingRootRequeued) {
			if co.racing {
				co.racingRootRequeued = true
			}
			co.pushPool(sub)
		}
		delete(co.running, rank)
	}
	co.racing = false
	co.windingUp = false
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
	ev := obs.Event{Kind: obs.KindCkptSave, Open: len(co.pool) + len(co.running)}
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

// runningRanks returns the ranks with an active subproblem in ascending
// order. Iterating co.running directly visits ranks in Go's randomized
// map order, which leaks into racing tie-breaks, checkpoint layout, and
// message traces — everything deterministic replay needs stable.
func (co *coordinator) runningRanks() []int {
	ranks := make([]int, 0, len(co.running))
	for rank := range co.running {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	return ranks
}

// dispatchTo sends one subproblem to a specific worker.
func (co *coordinator) dispatchTo(rank int, sub *Subproblem, tag comm.Tag, settingsIdx int) {
	co.running[rank] = sub
	co.dispatchAt[rank] = time.Now()
	co.workerBound[rank] = sub.Bound
	co.workerOpen[rank] = 1
	co.workerNodes[rank] = 0
	co.stats.Dispatched++
	if co.rootRank < 0 {
		co.rootRank = rank
	}
	if active := len(co.running); active > co.stats.MaxActive {
		co.stats.MaxActive = active
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
// the pool runs low the coordinator asks active solvers to ship heavy
// subproblems; when it is replenished it stops the collection.
func (co *coordinator) adjustCollectMode() {
	if co.stopping {
		return
	}
	if !co.collectMode && len(co.pool) < co.cfg.CollectLow && len(co.running) > 0 {
		co.collectMode = true
		co.stats.CollectPhases++
		co.trace.Emit(obs.Event{Kind: obs.KindCollectStart, Open: len(co.pool)})
		for _, rank := range co.runningRanks() {
			co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagStartCollect})
		}
	} else if co.collectMode && len(co.pool) >= co.cfg.CollectHigh {
		co.collectMode = false
		co.trace.Emit(obs.Event{Kind: obs.KindCollectStop, Open: len(co.pool)})
		for _, rank := range co.runningRanks() {
			co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagStopCollect})
		}
	}
}

// maybeEndRacing checks the racing termination criteria and, when met,
// declares a winner: best dual bound, ties broken by more open nodes.
func (co *coordinator) maybeEndRacing(elapsed float64) {
	trigger := elapsed >= co.cfg.RacingTime
	if !trigger {
		for _, open := range co.workerOpen {
			if open >= co.cfg.RacingNodeLimit {
				trigger = true
				break
			}
		}
	}
	if !trigger {
		return
	}
	// Visit ranks in ascending order so ties in bound and open-node
	// count resolve to the lowest rank on every run, not whichever rank
	// the map iterator happened to produce first.
	ranks := co.runningRanks()
	best := -1
	for _, rank := range ranks {
		if best < 0 {
			best = rank
			continue
		}
		bb, bo := co.workerBound[best], co.workerOpen[best]
		rb, ro := co.workerBound[rank], co.workerOpen[rank]
		if num.Gt(rb, bb, num.OptTol) || (num.Eq(rb, bb, num.OptTol) && ro > bo) {
			best = rank
		}
	}
	if best < 0 {
		return // all racing solvers already terminated
	}
	co.winnerRank = best
	co.stats.RacingWinner = co.racingIdx[best]
	co.stats.RacingWinnerName = co.factory.SettingsName(co.racingIdx[best])
	co.windingUp = true
	co.trace.Emit(obs.Event{Kind: obs.KindRacingWinner, Rank: best,
		Sub: int64(co.stats.RacingWinner), Str: co.stats.RacingWinnerName})
	co.comm.Send(best, comm.Message{From: 0, Tag: comm.TagExtractAll})
	for _, rank := range ranks {
		if rank != best {
			co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagStop})
		}
	}
}

// beginStop interrupts all running solvers (time limit reached).
func (co *coordinator) beginStop() {
	co.stopping = true
	co.trace.Emit(obs.Event{Kind: obs.KindRunStop, Open: len(co.running)})
	for _, rank := range co.runningRanks() {
		co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagStop})
	}
}

// handle processes one incoming message.
func (co *coordinator) handle(m comm.Message) {
	// A dead rank's queued solutions and collected nodes are still good
	// data; its control messages (status, terminated) are not — acting on
	// them would re-admit the rank to the idle set and strand the next
	// subproblem dispatched to it.
	if co.dead[m.From] && m.Tag != comm.TagSolution && m.Tag != comm.TagNode {
		return
	}
	switch m.Tag {
	case comm.TagPeerDown:
		co.handlePeerDown(m.From)
	case comm.TagSolution:
		var sol Solution
		dec(m.Payload, &sol)
		co.stats.TransferBytes += int64(len(m.Payload))
		if co.incumbent == nil || num.Lt(sol.Obj, co.incumbent.Obj, num.ZeroTol) {
			co.incumbent = &sol
			co.trace.Emit(obs.Event{Kind: obs.KindIncumbent, Rank: m.From, Primal: sol.Obj})
			// Broadcast to all running solvers and prune the pool.
			for _, rank := range co.runningRanks() {
				if rank != m.From {
					co.comm.Send(rank, comm.Message{From: 0, Tag: comm.TagSolution, Payload: enc(sol)})
				}
			}
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
		dec(m.Payload, &sub)
		co.nextSubID++
		sub.ID = co.nextSubID
		co.stats.Collected++
		co.stats.TransferBytes += int64(len(m.Payload))
		co.trace.Emit(obs.Event{Kind: obs.KindCollectNode, Rank: m.From, Sub: sub.ID, Dual: sub.Bound})
		co.pushPool(&sub)
	case comm.TagStatus:
		var st StatusReport
		dec(m.Payload, &st)
		co.workerBound[m.From] = st.Bound
		co.workerOpen[m.From] = st.Open
		co.workerNodes[m.From] = st.Nodes
		co.stats.StatusReports++
		co.trace.Emit(obs.Event{Kind: obs.KindStatus, Rank: m.From,
			Dual: st.Bound, Open: st.Open, Nodes: st.Nodes})
		if m.From == co.rootRank && num.ExactZero(co.stats.RootTime) && st.RootTime > 0 {
			co.stats.RootTime = st.RootTime
		}
	case comm.TagTerminated:
		var out Outcome
		dec(m.Payload, &out)
		sub := co.running[m.From]
		delete(co.running, m.From)
		delete(co.workerBound, m.From)
		co.workerOpen[m.From] = 0
		co.stats.TotalNodes += out.Nodes
		co.stats.LPIterations += out.LPIterations
		co.stats.CutsAdded += out.CutsAdded
		co.stats.SolsFound += out.SolsFound
		co.stats.PropFixings += out.PropFixings
		co.stats.Phases.Add(out.Phases)
		co.lpItersHist.Observe(float64(out.LPIterations))
		if m.From >= 1 && m.From <= len(co.stats.PerWorkerNodes) {
			co.stats.PerWorkerNodes[m.From-1] += out.Nodes
		}
		if co.trace.Enabled() {
			label := "interrupted"
			if out.Completed {
				label = "completed"
			}
			co.trace.Emit(obs.Event{Kind: obs.KindOutcome, Rank: m.From,
				Nodes: out.Nodes, Open: out.OpenLeft, Str: label})
			co.trace.Emit(obs.Event{Kind: obs.KindSolverIdle, Rank: m.From})
		}
		if t, ok := co.dispatchAt[m.From]; ok {
			d := time.Since(t)
			co.busy[m.From] += d
			co.subSeconds.Observe(d.Seconds())
			delete(co.dispatchAt, m.From)
		}
		if num.ExactZero(co.stats.RootTime) && m.From == co.rootRank && out.RootTime > 0 {
			co.stats.RootTime = out.RootTime
		}
		if co.racing {
			co.handleRacingTermination(m.From, out, sub)
			return
		}
		if !out.Completed && sub != nil {
			if co.stopping {
				// The interrupted subproblem root returns to the pool as a
				// primitive node; its explored part is the restart overhead
				// the paper describes.
				co.stats.OpenAtEnd += out.OpenLeft
				co.pushPool(sub)
			} else {
				// Interrupted for another reason (should not happen in
				// normal mode); requeue defensively.
				co.pushPool(sub)
			}
		}
		co.idle = append(co.idle, m.From)
	}
}

// handlePeerDown absorbs the loss of a worker process (synthesized
// TagPeerDown from a distributed transport): the rank leaves every
// roster, its in-flight subproblem returns to the pool as a primitive
// node, and the run continues on the surviving workers. The run-loop
// all-dead check turns total loss into an error instead of a hang.
func (co *coordinator) handlePeerDown(rank int) {
	if co.dead[rank] {
		return
	}
	co.dead[rank] = true
	co.trace.Emit(obs.Event{Kind: obs.KindCommPeerDown, Rank: rank})
	sub := co.running[rank]
	delete(co.running, rank)
	delete(co.workerBound, rank)
	co.workerOpen[rank] = 0
	for i, r := range co.idle {
		if r == rank {
			co.idle = append(co.idle[:i], co.idle[i+1:]...)
			break
		}
	}
	if t, ok := co.dispatchAt[rank]; ok {
		co.busy[rank] += time.Since(t)
		delete(co.dispatchAt, rank)
	}
	if co.racing {
		// Every racer works on the same root: requeue it only when the
		// search would otherwise lose it — the chosen winner died, or the
		// last racer is gone.
		if !co.racingRootRequeued && sub != nil &&
			(rank == co.winnerRank || len(co.running) == 0) {
			co.racingRootRequeued = true
			co.pushPool(sub)
		}
		if len(co.running) == 0 {
			co.racing = false
			co.windingUp = false
			co.trace.Emit(obs.Event{Kind: obs.KindRacingDone, Open: len(co.pool)})
		}
		return
	}
	if sub != nil {
		co.pushPool(sub)
	}
}

// handleRacingTermination tracks racing solvers finishing or stopping.
func (co *coordinator) handleRacingTermination(rank int, out Outcome, sub *Subproblem) {
	co.idle = append(co.idle, rank)
	if co.stopping && !out.Completed {
		co.stats.OpenAtEnd += out.OpenLeft
		if !co.racingRootRequeued && sub != nil {
			// Time limit hit mid-race with no winner: requeue the shared
			// root once so a checkpoint still covers the whole search.
			co.racingRootRequeued = true
			co.pushPool(sub)
		}
	}
	if out.Completed && !co.windingUp {
		// A racing solver finished the whole instance: stop the race.
		co.stats.SolvedInRacing = true
		co.stats.RacingWinner = co.racingIdx[rank]
		co.stats.RacingWinnerName = co.factory.SettingsName(co.racingIdx[rank])
		co.windingUp = true
		co.winnerRank = rank
		co.trace.Emit(obs.Event{Kind: obs.KindRacingWinner, Rank: rank,
			Sub: int64(co.stats.RacingWinner), Str: co.stats.RacingWinnerName})
		for r := range co.running {
			co.comm.Send(r, comm.Message{From: 0, Tag: comm.TagStop})
		}
	}
	if len(co.running) == 0 {
		// Racing phase fully wound up; switch to normal coordination.
		co.racing = false
		co.windingUp = false
		co.trace.Emit(obs.Event{Kind: obs.KindRacingDone, Open: len(co.pool)})
	}
}

// finished reports whether the run is over.
func (co *coordinator) finished() bool {
	if co.racing {
		return false
	}
	if co.stopping {
		return len(co.running) == 0
	}
	return len(co.pool) == 0 && len(co.running) == 0
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
	// Ascending rank rather than map order: the min is the same either
	// way, but the checkpointed/traced value should never even look
	// order-dependent (walldet tracks this flow into run.end and
	// Checkpoint.DualBound).
	for _, rank := range co.runningRanks() {
		if b, ok := co.workerBound[rank]; ok && b < lb {
			lb = b
		}
	}
	if lb == inf {
		return co.primalBound()
	}
	return lb
}

// finalize assembles the Result.
func (co *coordinator) finalize() *Result {
	total := time.Since(co.start)
	co.stats.Time = total.Seconds()
	co.stats.FinalPrimal = co.primalBound()
	co.stats.FinalDual = co.dualBound()
	co.stats.OpenAtEnd += len(co.pool)
	co.stats.IdleRatio = make([]float64, co.cfg.Workers)
	for rank := 1; rank <= co.cfg.Workers; rank++ {
		b := co.busy[rank]
		if t, ok := co.dispatchAt[rank]; ok {
			b += time.Since(t)
		}
		idle := 1 - b.Seconds()/total.Seconds()
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
