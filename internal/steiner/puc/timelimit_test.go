package puc

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
)

// sequential presolves g and returns the SCIP-Jack solver over it, under
// the default settings with the given time limit (0: none).
func sequential(t *testing.T, g *steiner.SPG, timeLimit float64) *scip.Solver {
	t.Helper()
	app := steiner.NewApp(g)
	f := core.NewFactory(app)
	if _, _, err := f.GlobalPresolve(); err != nil {
		t.Fatal(err)
	}
	set := steiner.DefaultSettings()
	set.TimeLimit = timeLimit
	return scip.NewSolver(f.Presolved(), set, app.MakePlugins())
}

// The time limit must bite inside the root cut loop, not only between
// nodes. This code-cover analogue separates at the root for about half
// a second, so a 0.2 s limit ends the solve in its root cut loop. The
// node interrupted there must stay open, so the dual bound remains a
// valid lower bound. The ten-times bound on the elapsed time dates from
// a pricing rule under which the root ran for many seconds; it no
// longer tells a limit honoured only between nodes from one honoured in
// the cut loop.
func TestTimeLimitInsideRootCutLoop(t *testing.T) {
	s := sequential(t, CodeCover(3, 5, 13, false, 1), 0.2)
	t0 := time.Now()
	st := s.Solve()
	el := time.Since(t0).Seconds()
	if st != scip.StatusTimeLimit {
		t.Fatalf("status %v after %.2fs, want time limit", st, el)
	}
	t.Logf("stopped after %.2fs at %d nodes, %d LP iterations; bounds [%g, %g]", el, s.Stats.Nodes, s.Stats.LPIterations, s.BestBound(), s.Incumbent().Obj)
	if el > 10*s.Set.TimeLimit {
		t.Fatalf("stopped after %.2fs, more than ten times the %.1fs limit", el, s.Set.TimeLimit)
	}
	if lb := s.BestBound(); !(lb > 0) || lb > s.Incumbent().Obj+1e-6 {
		t.Fatalf("dual bound %g is not a valid bound below the incumbent %g", lb, s.Incumbent().Obj)
	}
}

// lpWatch wraps a separator and counts its calls. Separators run only
// after an LP solve that reached optimality.
type lpWatch struct {
	scip.Separator
	calls int
}

func (w *lpWatch) Separate(ctx *scip.Ctx) scip.Result {
	w.calls++
	return w.Separator.Separate(ctx)
}

// The limit must also bite inside one LP solve: on this 256-vertex
// hypercube the root's first LP alone takes 2 748 dual simplex
// iterations, about 1 s on a 2-core x86 VM and four times the limit, so
// only a deadline checked between simplex iterations stops it in time.
// No separator ever runs, so no LP completed: the deadline inside
// lp.Solve is what stopped the solve.
func TestTimeLimitInsideLPSolve(t *testing.T) {
	s := sequential(t, Hypercube(8, true, 1), 0.25)
	watch := &lpWatch{Separator: s.Plug.Separators[0]}
	s.Plug.Separators[0] = watch
	t0 := time.Now()
	st := s.Solve()
	el := time.Since(t0).Seconds()
	if st != scip.StatusTimeLimit {
		t.Fatalf("status %v after %.2fs, want time limit", st, el)
	}
	t.Logf("stopped after %.2fs at %d nodes, %d LP iterations", el, s.Stats.Nodes, s.Stats.LPIterations)
	if el > 2*s.Set.TimeLimit {
		t.Fatalf("stopped after %.2fs, more than twice the %.2fs limit", el, s.Set.TimeLimit)
	}
	if watch.calls > 0 || s.Stats.LPIterations == 0 {
		t.Fatalf("%d LP iterations and %d separation calls: the first LP solve was not the one interrupted",
			s.Stats.LPIterations, watch.calls)
	}
	if inc := s.Incumbent(); inc != nil {
		if lb := s.BestBound(); lb > inc.Obj+1e-6 {
			t.Fatalf("dual bound %g is above the incumbent %g", lb, inc.Obj)
		}
	}
}

// CodeCover(3,5,13) stalled Dantzig's dual pricing at the root for
// well over 30 s; dual steepest edge solves it at the root in well
// under a second, to the Dreyfus–Wagner optimum.
func TestCodeCoverSolvesToOptimum(t *testing.T) {
	g := CodeCover(3, 5, 13, false, 1)
	want := g.SolveDW()
	s := sequential(t, g, 30)
	if st := s.Solve(); st != scip.StatusOptimal {
		t.Fatalf("status %v after %d nodes, %d LP iterations", st, s.Stats.Nodes, s.Stats.LPIterations)
	}
	t.Logf("%d nodes, %d LP iterations", s.Stats.Nodes, s.Stats.LPIterations)
	if got := s.Incumbent().Obj; math.Abs(got-want) > 1e-6 {
		t.Fatalf("optimum %v, Dreyfus–Wagner %v", got, want)
	}
}
