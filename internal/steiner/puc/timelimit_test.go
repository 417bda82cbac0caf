package puc

import (
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
// nodes: this code-cover analogue spends many seconds separating at the
// root, so a solve that honours a 0.2 s limit only at node boundaries
// overshoots it by orders of magnitude. The node interrupted in its cut
// loop must stay open, so the dual bound remains a valid lower bound.
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

// The limit must also bite inside one LP solve: with a 2 s limit this
// instance's root cut loop reaches a dual simplex that runs for well over
// 10 s without returning, so only a deadline checked between simplex
// iterations stops it in time.
func TestTimeLimitInsideLPSolve(t *testing.T) {
	s := sequential(t, CodeCover(3, 5, 13, false, 1), 2)
	t0 := time.Now()
	st := s.Solve()
	el := time.Since(t0).Seconds()
	if st != scip.StatusTimeLimit {
		t.Fatalf("status %v after %.2fs, want time limit", st, el)
	}
	t.Logf("stopped after %.2fs at %d nodes, %d LP iterations", el, s.Stats.Nodes, s.Stats.LPIterations)
	if el > 2*s.Set.TimeLimit {
		t.Fatalf("stopped after %.2fs, more than twice the %.0fs limit", el, s.Set.TimeLimit)
	}
	if inc := s.Incumbent(); inc != nil {
		if lb := s.BestBound(); lb > inc.Obj+1e-6 {
			t.Fatalf("dual bound %g is above the incumbent %g", lb, inc.Obj)
		}
	}
}
