package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/ug"
	"repro/internal/ug/comm"
)

// opResult is one operation: an instance solve or a served job.
type opResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`       // call to return (a job: submit to result)
	Proven  bool    `json:"proven"`        // the solver proved its answer optimal
	OK      bool    `json:"ok"`            // proven, and the answer matches the reference
	Why     string  `json:"why,omitempty"` // why it failed
	Obj     float64 `json:"obj"`
	// PrimalIntegral is ∫ min(1, (primal(t) − opt)/|opt|) dt over the
	// operation, gap 1 before the first incumbent.
	PrimalIntegral float64 `json:"primal_integral"`
	Nodes          int64   `json:"nodes"`
	LPIters        int64   `json:"lp_iters"`
}

// primalIntegral integrates the primal gap of a step function of
// incumbents (objective obj[i] from time at[i] on) up to end.
func primalIntegral(at, obj []float64, end, opt float64) float64 {
	denom := math.Abs(opt)
	if denom < 1e-9 {
		denom = 1e-9
	}
	total, t, gap := 0.0, 0.0, 1.0
	for i := range at {
		if at[i] > end {
			break
		}
		total += gap * (at[i] - t)
		t = at[i]
		gap = min(1, max(0, (obj[i]-opt)/denom))
	}
	return total + gap*(end-t)
}

// check fills OK/Why from the solver's verdict and the reference.
func (r *opResult) check(e *Entry, optimal bool, status string) {
	r.Proven = optimal
	switch {
	case !optimal:
		r.Why = "not proven optimal: " + status
	case !e.matchesOpt(r.Obj):
		r.Why = fmt.Sprintf("objective %.9g differs from reference %.9g", r.Obj, e.Opt)
	default:
		r.OK = true
	}
}

// seqApp returns the App, settings and span prefix a sequential
// workload solves e with.
func seqApp(workload string, e *Entry) (core.App, scip.Settings, string, error) {
	if workload == "stp_seq" {
		g, err := e.BuildSTP()
		if err != nil {
			return core.App{}, scip.Settings{}, "", err
		}
		return steiner.NewApp(g), steiner.DefaultSettings(), "steiner", nil
	}
	p, err := e.BuildMISDP()
	if err != nil {
		return core.App{}, scip.Settings{}, "", err
	}
	set := misdp.SDPSettings()
	if workload == "misdp_lp" {
		set = misdp.LPSettings()
	}
	return misdp.NewApp(p, 16), set, "misdp", nil
}

// solveSeq is the sequential customized solver: global presolve, then
// one scip solve with the App's plugins.
func solveSeq(e *Entry, app core.App, set scip.Settings, mod string, t *Trace) opResult {
	r := opResult{Name: e.Name}
	t0 := time.Now()
	root := t.Begin(0, e.Name, "op")
	f := core.NewFactory(app)
	pre := t.Begin(root, e.Name, mod+".presolve")
	_, _, err := f.GlobalPresolve()
	t.End(pre)
	if err != nil {
		t.End(root)
		r.Seconds, r.Why = time.Since(t0).Seconds(), "presolve: "+err.Error()
		return r
	}
	sol := t.Begin(root, e.Name, "solve")
	s := scip.NewSolver(f.Presolved(), set, t.wrapPlugins(app.MakePlugins(), mod, e.Name, sol))
	ps := newPrimalSampler(t0)
	s.Poll = ps.poll
	st := s.Solve()
	t.End(sol)
	t.End(root)
	r.Seconds = time.Since(t0).Seconds()
	if inc := s.Incumbent(); inc != nil {
		ps.note(inc.Obj)
		r.Obj = inc.Obj + f.ObjOffset()
	}
	for i := range ps.obj {
		ps.obj[i] += f.ObjOffset()
	}
	r.PrimalIntegral = primalIntegral(ps.at, ps.obj, r.Seconds, e.Opt)
	r.Nodes, r.LPIters = s.Stats.Nodes, s.Stats.LPIterations
	r.check(e, st == scip.StatusOptimal, st.String())

	st2 := &s.Stats
	t.Count("scip.nodes", float64(st2.Nodes))
	t.Count("scip.dead_ends", float64(st2.DeadEnds))
	t.Max("scip.max_depth", float64(st2.MaxDepth))
	t.Count("lp.iters", float64(st2.LPIterations))
	t.Count("lp.busy_s", st2.Phases.LP)
	t.Count(mod+".cuts", float64(st2.CutsAdded))
	t.Count(mod+".sols", float64(st2.SolsFound))
	t.Count(mod+".prop_fixings", float64(st2.PropFixings))
	return r
}

// solveUG is ug[SCIP-Jack, shared memory]: two ParaSolvers, normal
// ramp-up, ChannelComm.
func solveUG(e *Entry, g *steiner.SPG, t *Trace) opResult {
	run, err := runUG(e.Name, steiner.NewApp(g), ug.Config{Workers: 2}, nil, t)
	r := opResult{Name: e.Name, Seconds: run.seconds}
	if err != nil {
		r.Why = "ug: " + err.Error()
		return r
	}
	res, primal := run.res, run.tap.primal
	r.Obj = run.obj
	r.PrimalIntegral = primalIntegral(primal.at, primal.obj, r.Seconds, e.Opt)
	r.Nodes, r.LPIters = res.Stats.TotalNodes, res.Stats.LPIterations
	r.check(e, res.Optimal, fmt.Sprintf("optimal=%v dual=%g", res.Optimal, res.DualBound))

	st := &res.Stats
	t.Count("scip.nodes", float64(st.TotalNodes))
	t.Count("lp.iters", float64(st.LPIterations))
	t.Count("lp.busy_s", st.Phases.LP)
	t.Count("steiner.cuts", float64(st.CutsAdded))
	t.Count("ug.dispatched", float64(st.Dispatched))
	t.Count("ug.collected", float64(st.Collected))
	t.Count("ug.transfer_bytes", float64(st.TransferBytes))
	t.Count("ug.status_reports", float64(st.StatusReports))
	t.Count("ug.ramp_up_s", st.FirstMaxActiveTime)
	t.Count("ug.root_time_s", st.RootTime)
	t.Count("ug.time_s", st.Time)
	t.Max("ug.max_active", float64(st.MaxActive))
	for _, idle := range st.IdleRatio {
		t.Count("ug.idle_sum", idle)
		t.Count("ug.idle_n", 1)
	}
	return r
}

// ugRun is one solve through ug.
type ugRun struct {
	res     *ug.Result
	obj     float64 // res.Obj plus the presolve offset
	seconds float64
	tap     *tapComm // its incumbents carry the offset too
}

// runUG runs app under ug with cfg over inner (nil: a ChannelComm),
// with the solution tap always on and the factory, plugin and per-tag
// comm decorators when t is non-nil.
func runUG(op string, app core.App, cfg ug.Config, inner comm.Comm, t *Trace) (ugRun, error) {
	t0 := time.Now()
	root := t.Begin(0, op, "op")
	if inner == nil {
		inner = comm.NewChannelComm(cfg.Workers + 1)
	}
	tap := newTapComm(inner, t, t0)
	cfg.Comm = tap
	tf := &tracedFactory{t: t, op: op, parent: root}
	if t != nil {
		makePlugins := app.MakePlugins
		app.MakePlugins = func() *scip.Plugins {
			return t.wrapPlugins(makePlugins(), "steiner", op, tf.pluginParent())
		}
	}
	cf := core.NewFactory(app)
	tf.SolverFactory = cf
	var factory ug.SolverFactory = cf
	if t != nil {
		factory = tf
	}
	res, err := ug.Run(factory, cfg)
	t.End(root)
	run := ugRun{res: res, seconds: time.Since(t0).Seconds(), tap: tap}
	if err != nil {
		return run, err
	}
	run.obj = res.Obj + cf.ObjOffset()
	for i := range tap.primal.obj {
		tap.primal.obj[i] += cf.ObjOffset()
	}
	return run, nil
}
