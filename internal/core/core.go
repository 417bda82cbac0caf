// Package core is the ug[SCIP-*,*] glue layer: it adapts any customized
// scip-based solver — described as problem data, a ProblemDef, and a set
// of plugin constructors — to the UG framework's SolverFactory, so that
// the solver can be parallelized without touching either the solver or
// UG. This mirrors the paper's ScipUserPlugins mechanism: the per-problem
// registration files (internal/steiner/app.go and internal/misdp/app.go),
// the glue the paper counts for stp_plugins.cpp and misdp_plugins.cpp,
// stay under 200 lines.
package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
)

// App describes a customized SCIP solver in plugin form.
type App struct {
	Name string
	// Def owns problem-data lifecycle (presolve, model build, decisions).
	Def scip.ProblemDef
	// Data is the original problem data.
	Data any
	// MakePlugins constructs a fresh plugin set. It is called exactly
	// once per WorkerSolver.Solve, before anything else, so plugins may
	// carry per-solve state.
	MakePlugins func() *scip.Plugins
	// Settings is the racing settings ladder; Settings[0] is the default
	// configuration used outside racing. Empty means a single default.
	Settings []scip.Settings
}

// Factory implements ug.SolverFactory over an App.
type Factory struct {
	app       App
	presolved *scip.Prob
	objOffset float64
	// external marks presolved/objOffset as supplied by the caller
	// (NewPresolvedFactory): GlobalPresolve then skips the reduction
	// phase entirely — the serving layer's presolve cache rides on this.
	external bool
}

// NewFactory wraps an App for ug.Run.
func NewFactory(app App) *Factory {
	if len(app.Settings) == 0 {
		app.Settings = []scip.Settings{scip.DefaultSettings()}
	}
	if app.MakePlugins == nil {
		app.MakePlugins = func() *scip.Plugins { return &scip.Plugins{} }
	}
	return &Factory{app: app}
}

// NewPresolvedFactory wraps an App whose global presolve already
// happened elsewhere: prob is the presolved shared model and offset the
// objective offset the reductions accumulated. GlobalPresolve then only
// encodes the root subproblem — it never re-runs ProblemDef.Presolve —
// so a presolve cache can amortize the reduction phase across repeated
// submissions of the same instance. The model is shared read-only by
// every ParaSolver, exactly as NewFactory shares its own presolve
// result.
func NewPresolvedFactory(app App, prob *scip.Prob, offset float64) *Factory {
	f := NewFactory(app)
	f.presolved = prob
	f.objOffset = offset
	f.external = true
	return f
}

// Presolve runs the App's global presolve standalone (the same
// reduction GlobalPresolve performs inside ug.Run) and returns the
// presolved model plus the objective offset. The App's Data is cloned
// first, so the caller's instance stays untouched — the pair can be
// cached and handed to NewPresolvedFactory any number of times.
func Presolve(app App) (*scip.Prob, float64, error) {
	f := NewFactory(app)
	if _, _, err := f.GlobalPresolve(); err != nil {
		return nil, 0, err
	}
	return f.presolved, f.objOffset, nil
}

// GlobalPresolve implements ug.SolverFactory: it presolves the instance
// once in the LoadCoordinator and builds the shared model all ParaSolvers
// solve (the outer layer of the paper's layered presolving; the inner
// layer happens when each ParaSolver re-reduces received subproblems).
// On a NewPresolvedFactory the reduction phase is skipped: the supplied
// model is used as-is and only the root payload is built.
func (f *Factory) GlobalPresolve() ([]byte, *ug.Solution, error) {
	if f.external {
		root, err := scip.EncodeSubprob(&scip.Subprob{Bound: negInf})
		if err != nil {
			return nil, nil, err
		}
		return root, nil, nil
	}
	data := f.app.Data
	if f.app.Def != nil {
		data = f.app.Def.CloneData(data)
		data, f.objOffset = f.app.Def.Presolve(data, scip.Infinity)
		f.presolved = f.app.Def.BuildModel(data)
	} else {
		prob, ok := data.(*scip.Prob)
		if !ok {
			return nil, nil, fmt.Errorf("core: app %q has no ProblemDef and data is %T, not *scip.Prob", f.app.Name, data)
		}
		f.presolved = prob
	}
	root, err := scip.EncodeSubprob(&scip.Subprob{Bound: negInf})
	if err != nil {
		return nil, nil, err
	}
	return root, nil, nil
}

// ObjOffset returns the objective offset accumulated by global
// presolving; original-space objective = model objective + offset.
func (f *Factory) ObjOffset() float64 { return f.objOffset }

// Presolved returns the shared presolved model (available after
// GlobalPresolve).
func (f *Factory) Presolved() *scip.Prob { return f.presolved }

// NumSettings implements ug.SolverFactory.
func (f *Factory) NumSettings() int { return len(f.app.Settings) }

// SettingsName implements ug.SolverFactory.
func (f *Factory) SettingsName(idx int) string {
	s := f.app.Settings[idx]
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("settings-%d", idx)
}

// CreateWorker implements ug.SolverFactory.
func (f *Factory) CreateWorker(settingsIdx int) ug.WorkerSolver {
	if settingsIdx < 0 || settingsIdx >= len(f.app.Settings) {
		settingsIdx = 0
	}
	return &worker{f: f, set: f.app.Settings[settingsIdx]}
}

var negInf = -scip.Infinity

// worker wraps one scip solver as a UG ParaSolver. The solver is built
// on the first Solve and reset for every later one, so its incumbent,
// pseudocosts and pool of global cuts carry over between subproblems.
type worker struct {
	f   *Factory
	set scip.Settings
	s   *scip.Solver
}

// Solve implements ug.WorkerSolver: it builds a new plugin set, decodes
// the subproblem, solves it with the worker's reset scip solver, and
// services the UG session from the solver's per-node Poll hook
// (Algorithm 2's periodic communication).
func (w *worker) Solve(sub *ug.Subproblem, sess *ug.Session) ug.Outcome {
	plug := w.f.app.MakePlugins()
	sp, err := scip.DecodeSubprob(sub.Payload)
	if err != nil {
		return ug.Outcome{}
	}
	if w.s == nil {
		w.s = scip.NewSolver(w.f.presolved, w.set, plug)
	} else {
		w.s.Reset(plug)
	}
	s := w.s
	lastObj := scip.Infinity
	if inc := sess.InitialIncumbent(); inc != nil {
		if sol, err := scip.DecodeSol(inc.Payload); err == nil && s.InjectSolution(sol) {
			lastObj = sol.Obj
		}
	}
	reportIncumbent := func() {
		inc := s.Incumbent()
		if inc == nil || inc.Obj >= lastObj-1e-12 {
			return
		}
		lastObj = inc.Obj
		if payload, err := scip.EncodeSol(inc); err == nil {
			sess.FoundSolution(ug.Solution{Obj: inc.Obj, Payload: payload})
		}
	}
	ship := func(nsp *scip.Subprob) {
		payload, err := scip.EncodeSubprob(nsp)
		if err != nil {
			return
		}
		sess.ShipNode(ug.Subproblem{Depth: nsp.Depth, Bound: nsp.Bound, Payload: payload})
	}
	s.Poll = func(sv *scip.Solver) bool {
		reportIncumbent()
		cmd := sess.Poll(ug.StatusReport{
			Bound:    sv.BestBound(),
			Open:     sv.NumOpen(),
			Nodes:    sv.Stats.Nodes,
			RootTime: sv.Stats.RootTime,
		})
		for _, sol := range cmd.Solutions {
			if dsol, err := scip.DecodeSol(sol.Payload); err == nil {
				s.InjectSolution(dsol)
				if dsol.Obj < lastObj {
					lastObj = dsol.Obj
				}
			}
		}
		if cmd.ExtractAll {
			for _, nsp := range sv.ExtractAllOpen() {
				ship(nsp)
			}
			return false
		}
		if cmd.WantNode {
			if nsp := sv.ExtractBestOpen(); nsp != nil {
				ship(nsp)
			}
		}
		return !cmd.Stop
	}
	st := s.SolveSubprob(sp)
	reportIncumbent()
	return ug.Outcome{
		Completed:    st == scip.StatusOptimal || st == scip.StatusInfeasible,
		Nodes:        s.Stats.Nodes,
		OpenLeft:     s.NumOpen(),
		RootTime:     s.Stats.RootTime,
		LPIterations: s.Stats.LPIterations,
		CutsAdded:    s.Stats.CutsAdded,
		SolsFound:    s.Stats.SolsFound,
		PropFixings:  s.Stats.PropFixings,
		Phases: ug.PhaseTimes{
			LP:          s.Stats.Phases.LP,
			Relax:       s.Stats.Phases.Relax,
			Separation:  s.Stats.Phases.Separation,
			Heuristics:  s.Stats.Phases.Heuristics,
			Propagation: s.Stats.Phases.Propagation,
		},
	}
}

// SolveParallel is the one-call entry point: build the factory, run UG.
func SolveParallel(app App, cfg ug.Config) (*ug.Result, *Factory, error) {
	f := NewFactory(app)
	res, err := ug.Run(f, cfg)
	return res, f, err
}

// SolveWithPresolved is SolveParallel over an already-presolved model
// (see Presolve/NewPresolvedFactory): ug.Run starts from prob and
// offset directly, bypassing GlobalPresolve's reduction phase. This is
// the serving layer's cache-hit path; the CLI paths keep using
// SolveParallel and are byte-identical in traces.
func SolveWithPresolved(app App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, *Factory, error) {
	f := NewPresolvedFactory(app, prob, offset)
	res, err := ug.Run(f, cfg)
	return res, f, err
}

// SolveSequential runs the plain customized solver (no UG) — the
// baseline the paper's tables compare against.
func SolveSequential(app App, set scip.Settings) (*scip.Solver, scip.Status, float64) {
	return SolveSequentialTraced(app, set, nil)
}

// SolveSequentialTraced is SolveSequential with an obs tracer attached
// to the base solver before the solve starts, so the per-node scip.node
// event stream covers the whole run. trace may be nil (no tracing).
func SolveSequentialTraced(app App, set scip.Settings, trace *obs.Tracer) (*scip.Solver, scip.Status, float64) {
	f := NewFactory(app)
	if _, _, err := f.GlobalPresolve(); err != nil {
		panic(err)
	}
	s := scip.NewSolver(f.presolved, set, f.app.MakePlugins())
	s.Trace = trace
	st := s.Solve()
	return s, st, f.objOffset
}
