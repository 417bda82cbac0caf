package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
)

// firstLP wraps a separator and records the objective and simplex
// iterations of the first LP it is handed.
type firstLP struct {
	scip.Separator
	obj   float64
	iters int
	seen  bool
}

func (f *firstLP) Separate(ctx *scip.Ctx) scip.Result {
	if !f.seen {
		f.seen, f.obj, f.iters = true, ctx.LPSol.Obj, ctx.LPSol.Iters
	}
	return f.Separator.Separate(ctx)
}

// A reset solver keeps the global Steiner cuts of its earlier
// subproblems in the LP: after solving one child of the root, its first
// LP on the other child holds every row a fresh solver's does plus those
// cuts, and its bound is higher. It keeps the LP basis too: handed the
// second child straight after the root, its first LP re-solves from the
// root's basis in fewer iterations than a fresh solver's first LP from
// the all-slack one, and both reach the same optimum. The cuts and LP
// iterations of the whole subtree solve depend on the vertices each
// simplex visits, so they are only logged.
func TestResetSolverSeparatesFewerCuts(t *testing.T) {
	app := steiner.NewApp(puc.HypercubeT(4, 7, true, 3))
	prob, _, err := core.Presolve(app)
	if err != nil {
		t.Fatal(err)
	}
	set := app.Settings[0]
	solveRoot := func() (*scip.Solver, []*scip.Subprob) {
		rootSet := set
		rootSet.NodeLimit = 1
		s := scip.NewSolver(prob, rootSet, app.MakePlugins())
		s.SolveSubprob(&scip.Subprob{Bound: math.Inf(-1)})
		kids := s.ExtractAllOpen()
		if len(kids) != 2 {
			t.Fatalf("root left %d open children, want 2", len(kids))
		}
		s.Set.NodeLimit = 0
		return s, kids
	}
	watched := func() (*scip.Plugins, *firstLP) {
		plug := app.MakePlugins()
		f := &firstLP{Separator: plug.Separators[0]}
		plug.Separators[0] = f
		return plug, f
	}

	s, kids := solveRoot()
	s.Reset(app.MakePlugins())
	s.SolveSubprob(kids[0])
	plug, resetLP := watched()
	s.Reset(plug)
	s.SolveSubprob(kids[1])
	plug, freshLP := watched()
	fresh := scip.NewSolver(prob, set, plug)
	fresh.SolveSubprob(kids[1])
	t.Logf("second child: first LP %v, %d cuts on the reset solver; %v, %d on a fresh one",
		resetLP.obj, s.Stats.CutsAdded, freshLP.obj, fresh.Stats.CutsAdded)
	if !resetLP.seen || !freshLP.seen || resetLP.obj <= freshLP.obj+1e-6 {
		t.Fatalf("second child: first LP %v on the reset solver, not above %v on a fresh one",
			resetLP.obj, freshLP.obj)
	}

	s, kids = solveRoot()
	inc := s.Incumbent()
	plug, resetLP = watched()
	s.Reset(plug)
	s.SolveSubprob(kids[1])
	plug, freshLP = watched()
	fresh = scip.NewSolver(prob, set, plug)
	fresh.InjectSolution(inc)
	fresh.SolveSubprob(kids[1])
	t.Logf("second child after the root: first LP %d of %d LP iterations on the reset solver, %d of %d on a fresh one",
		resetLP.iters, s.Stats.LPIterations, freshLP.iters, fresh.Stats.LPIterations)
	if !resetLP.seen || !freshLP.seen || resetLP.iters >= freshLP.iters {
		t.Fatalf("second child after the root: first LP %d iterations on the reset solver, %d on a fresh one",
			resetLP.iters, freshLP.iters)
	}
	if s.Incumbent().Obj != fresh.Incumbent().Obj {
		t.Fatalf("second child after the root: optimum %v on the reset solver, %v on a fresh one",
			s.Incumbent().Obj, fresh.Incumbent().Obj)
	}
}

// Every way of running ug[SCIP-Jack,*] reaches the Dreyfus–Wagner
// optimum: sequential, ug with 1 and 2 ParaSolvers, racing ramp-up, and
// 2 ParaSolvers over the loopback TCP transport.
func TestSteinerModesAgree(t *testing.T) {
	inst := puc.HypercubeT(4, 7, true, 3)
	want := inst.SolveDW()
	newApp := func() core.App { return steiner.NewApp(inst.Clone()) }
	check := func(mode string, optimal bool, obj float64) {
		t.Helper()
		if !optimal || math.Abs(obj-want) > 1e-6 {
			t.Errorf("%s: optimal %v, obj %v; want %v", mode, optimal, obj, want)
		}
	}

	s, st, off := core.SolveSequential(newApp(), steiner.DefaultSettings())
	check("sequential", st == scip.StatusOptimal, s.Incumbent().Obj+off)

	fine := ug.Config{StatusInterval: 1e-3, ShipInterval: 1e-3}
	for _, mode := range []struct {
		name string
		cfg  ug.Config
	}{
		{"ug 1 worker", ug.Config{Workers: 1}},
		{"ug 2 workers", ug.Config{Workers: 2}},
		{"racing", ug.Config{Workers: 2, RampUp: ug.RampUpRacing, RacingTime: 0.05}},
	} {
		cfg := mode.cfg
		cfg.StatusInterval, cfg.ShipInterval = fine.StatusInterval, fine.ShipInterval
		res, f, err := core.SolveParallel(newApp(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(mode.name, res.Optimal, res.Obj+f.ObjOffset())
	}
	res, f, err := core.SolveDistributed(t, newApp, 2, fine)
	if err != nil {
		t.Fatal(err)
	}
	check("loopback TCP", res.Optimal, res.Obj+f.ObjOffset())
}

// ug with one ParaSolver is the sequential solve: collect mode only
// feeds an idle rank, so the single rank keeps the root for the whole
// run and its search repeats the sequential one node for node — the
// same nodes, LP iterations and cuts, one dispatch and nothing
// collected.
func TestUGOneWorkerIsSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst func() *steiner.SPG
	}{
		{"HypercubeT(4,7,true,3)", func() *steiner.SPG { return puc.HypercubeT(4, 7, true, 3) }},
		{"HypercubeSpread(5,16,100,170,4)", func() *steiner.SPG { return puc.HypercubeSpread(5, 16, 100, 170, 4) }},
		{"HypercubeSpread(5,16,100,160,2)", func() *steiner.SPG { return puc.HypercubeSpread(5, 16, 100, 160, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := steiner.NewApp(tc.inst())
			s, st, _ := core.SolveSequential(app, app.Settings[0])
			if st != scip.StatusOptimal {
				t.Fatalf("sequential status %v", st)
			}
			res, _, err := core.SolveParallel(steiner.NewApp(tc.inst()), ug.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			seq := [3]int64{s.Stats.Nodes, s.Stats.LPIterations, s.Stats.CutsAdded}
			par := [3]int64{res.Stats.TotalNodes, res.Stats.LPIterations, res.Stats.CutsAdded}
			t.Logf("nodes/LP iterations/cuts: sequential %v, ug 1 worker %v", seq, par)
			if !res.Optimal || par != seq {
				t.Errorf("ug 1 worker: optimal %v, nodes/LP iterations/cuts %v; sequential %v",
					res.Optimal, par, seq)
			}
			if res.Stats.Dispatched != 1 || res.Stats.Collected != 0 {
				t.Errorf("ug 1 worker: %d dispatched, %d collected; want 1 and 0",
					res.Stats.Dispatched, res.Stats.Collected)
			}
		})
	}
}
