package puc

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
)

// The time limit must bite inside the root cut loop, not only between
// nodes: this code-cover analogue spends many seconds separating at the
// root, so a solve that honours a 0.2 s limit only at node boundaries
// overshoots it by orders of magnitude. The node interrupted in its cut
// loop must stay open, so the dual bound remains a valid lower bound.
func TestTimeLimitInsideRootCutLoop(t *testing.T) {
	app := steiner.NewApp(CodeCover(3, 5, 13, false, 1))
	f := core.NewFactory(app)
	if _, _, err := f.GlobalPresolve(); err != nil {
		t.Fatal(err)
	}
	set := steiner.DefaultSettings()
	set.TimeLimit = 0.2
	s := scip.NewSolver(f.Presolved(), set, app.MakePlugins())
	t0 := time.Now()
	st := s.Solve()
	el := time.Since(t0).Seconds()
	if st != scip.StatusTimeLimit {
		t.Fatalf("status %v after %.2fs, want time limit", st, el)
	}
	t.Logf("stopped after %.2fs at %d nodes, %d LP iterations; bounds [%g, %g]", el, s.Stats.Nodes, s.Stats.LPIterations, s.BestBound(), s.Incumbent().Obj)
	if el > 10*set.TimeLimit {
		t.Fatalf("stopped after %.2fs, more than ten times the %.1fs limit", el, set.TimeLimit)
	}
	if lb := s.BestBound(); !(lb > 0) || lb > s.Incumbent().Obj+1e-6 {
		t.Fatalf("dual bound %g is not a valid bound below the incumbent %g", lb, s.Incumbent().Obj)
	}
}
