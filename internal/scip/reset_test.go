package scip

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// rootCutSepa adds, once per plugin set and only at depth 0, the global
// cut x0 + x1 ≤ 1 and the local cut x1 + x2 ≤ 1.
type rootCutSepa struct{ done bool }

func (*rootCutSepa) Name() string { return "rootcuts" }
func (sp *rootCutSepa) Separate(ctx *Ctx) Result {
	if sp.done || ctx.Node.Depth > 0 {
		return DidNothing
	}
	sp.done = true
	ctx.AddCut(lp.LE, 1, []lp.Nonzero{{Col: 0, Val: 1}, {Col: 1, Val: 1}})
	ctx.AddLocalCut(lp.LE, 1, []lp.Nonzero{{Col: 1, Val: 1}, {Col: 2, Val: 1}})
	return Separated
}

// resetProb is max x0+x1+x2 over binaries with 2(x0+x1+x2) ≤ 3: the
// root LP stays fractional after both cuts, so the root branches.
func resetProb() *Prob {
	p := &Prob{Name: "reset", IntegralObj: true}
	for i := 0; i < 3; i++ {
		p.AddVar("x", 0, 1, -1, Binary)
	}
	p.AddRow("cap", lp.LE, 3, []lp.Nonzero{{Col: 0, Val: 2}, {Col: 1, Val: 2}, {Col: 2, Val: 2}})
	return p
}

func rootSub() *Subprob { return &Subprob{Bound: math.Inf(-1)} }

// Reset drops the previous subproblem's open nodes, statistics, Poll
// hook and local cuts, and keeps the LP with the model rows plus the
// pool of global cuts.
func TestResetKeepsLPWithGlobalCutPool(t *testing.T) {
	p := resetProb()
	s := NewSolver(p, DefaultSettings(), &Plugins{Separators: []Separator{&rootCutSepa{}}})
	if !s.InjectSolution(&Sol{X: []float64{0, 0, 0}}) {
		t.Fatal("feasible start solution rejected")
	}
	// Interrupt after the root, leaving its children open.
	s.Poll = func(sv *Solver) bool { return sv.Stats.Nodes == 0 }
	if st := s.SolveSubprob(rootSub()); st != StatusInterrupted {
		t.Fatalf("first solve status %v, want interrupted", st)
	}
	if s.Stats.CutsAdded != 2 || s.NumOpen() == 0 {
		t.Fatalf("first solve: %d cuts, %d open; want 2 cuts and open children", s.Stats.CutsAdded, s.NumOpen())
	}
	inc := s.Incumbent()
	lps := s.lps

	s.Reset(&Plugins{Separators: []Separator{&rootCutSepa{}}})
	if s.lps != lps {
		t.Fatal("Reset replaced the LP")
	}
	if got, want := s.lps.NumRows(), len(p.Rows)+1; got != want || s.baseRows != want {
		t.Fatalf("LP rows after Reset = %d (%d base), want %d model + 1 pooled", got, s.baseRows, len(p.Rows))
	}
	for i := 0; i < s.lps.NumRows(); i++ {
		if !s.lps.RowEnabled(i) {
			t.Fatalf("row %d disabled after Reset", i)
		}
	}
	// The kept rows are the model row and the global cut x0 + x1 ≤ 1, not
	// the local cut x1 + x2 ≤ 1: the model row admits both (0, ¾, ¾),
	// which only the local cut cuts off, and (¾, ¾, 0), which only the
	// global cut does.
	for _, tc := range []struct {
		x    [3]float64
		want lp.Status
	}{{[3]float64{0, 0.75, 0.75}, lp.Optimal}, {[3]float64{0.75, 0.75, 0}, lp.Infeasible}} {
		for j, v := range tc.x {
			s.lps.SetBound(j, v, v)
		}
		if st := s.lps.Solve().Status; st != tc.want {
			t.Fatalf("LP fixed at %v is %v, want %v: the local cut survived or the global cut is gone", tc.x, st, tc.want)
		}
	}
	if len(s.cutOrigin) != 0 || s.NumOpen() != 0 || s.Poll != nil || s.Stats != (Stats{}) {
		t.Fatalf("Reset left %d cut origins, %d open nodes, poll set %v, stats %+v",
			len(s.cutOrigin), s.NumOpen(), s.Poll != nil, s.Stats)
	}
	if s.Incumbent() != inc {
		t.Fatal("Reset dropped the incumbent")
	}

	// The pooled global cut is already in the LP: the second subproblem
	// adds only its local cut, where a fresh solver adds both.
	if st := s.SolveSubprob(rootSub()); st != StatusOptimal {
		t.Fatalf("second solve status %v", st)
	}
	fresh := NewSolver(p, DefaultSettings(), &Plugins{Separators: []Separator{&rootCutSepa{}}})
	if st := fresh.SolveSubprob(rootSub()); st != StatusOptimal {
		t.Fatalf("fresh solve status %v", st)
	}
	if s.Stats.CutsAdded != 1 || fresh.Stats.CutsAdded != 2 {
		t.Fatalf("cuts added: reused %d, fresh %d; want 1 and 2", s.Stats.CutsAdded, fresh.Stats.CutsAdded)
	}
	if s.Incumbent().Obj != fresh.Incumbent().Obj {
		t.Fatalf("reused optimum %v, fresh %v", s.Incumbent().Obj, fresh.Incumbent().Obj)
	}
}
