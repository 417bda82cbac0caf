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
// hook and local cuts, and starts the LP from the model rows plus the
// pool of global cuts.
func TestResetRebuildsLPFromGlobalCutPool(t *testing.T) {
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

	s.Reset(&Plugins{Separators: []Separator{&rootCutSepa{}}})
	if pooled := len(s.lpProb.Rows) - len(p.Rows); pooled != 1 {
		t.Fatalf("pool holds %d cuts, want the 1 global cut", pooled)
	}
	if got, want := s.lps.NumRows(), len(p.Rows)+1; got != want {
		t.Fatalf("LP rows after Reset = %d, want %d model + 1 pooled", got, len(p.Rows))
	}
	for i := 0; i < s.lps.NumRows(); i++ {
		if !s.lps.RowEnabled(i) {
			t.Fatalf("row %d disabled after Reset", i)
		}
	}
	local := string(s.cutKey(lp.LE, 1, []lp.Nonzero{{Col: 1, Val: 1}, {Col: 2, Val: 1}}))
	for _, r := range s.lpProb.Rows {
		if string(s.cutKey(r.Sense, r.RHS, r.Coefs)) == local {
			t.Fatal("the local cut survived Reset")
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
