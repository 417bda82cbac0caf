package lp

import (
	"math"
	"math/rand"
	"testing"
)

// warmMirror is the problem a warm Solver is meant to hold after a run
// of edits: its rows with their enabled flags, and the current costs and
// bounds. fresh builds it again from scratch, disabled rows left out.
type warmMirror struct {
	p       *Problem
	enabled []bool
	cut     []bool // added by the test, not by randomFeasibleLP
}

func (w *warmMirror) fresh() (*Problem, []int) {
	q := &Problem{
		Obj: append([]float64(nil), w.p.Obj...),
		Lo:  append([]float64(nil), w.p.Lo...),
		Up:  append([]float64(nil), w.p.Up...),
	}
	var kept []int
	for i, r := range w.p.Rows {
		if w.enabled[i] {
			q.Rows = append(q.Rows, r)
			kept = append(kept, i)
		}
	}
	return q, kept
}

func (w *warmMirror) addRow(sense Sense, rhs float64, coefs []Nonzero, cut bool) {
	w.p.AddRow(sense, rhs, coefs)
	w.enabled = append(w.enabled, true)
	w.cut = append(w.cut, cut)
}

func (w *warmMirror) deleteRows(del []bool) {
	k := 0
	for i := range w.p.Rows {
		if !del[i] {
			w.p.Rows[k], w.enabled[k], w.cut[k] = w.p.Rows[i], w.enabled[i], w.cut[i]
			k++
		}
	}
	w.p.Rows, w.enabled, w.cut = w.p.Rows[:k], w.enabled[:k], w.cut[:k]
}

// startInfeasibility reports whether the next Solve starts from a basis
// that is primal infeasible and whether it is dual infeasible. It runs
// only what Solve itself runs first (computeXB, and refreshPricing on
// stale prices), so it does not change the solve.
func startInfeasibility(s *Solver) (primal, dual bool) {
	if !s.hasBasis || len(s.basis) != s.m || s.fac.m != s.m {
		return false, false
	}
	s.computeXB()
	if s.primalInfeasibility() <= feasTol {
		return false, false
	}
	if s.pricing == priceStale {
		s.refreshPricing()
	}
	for j, dj := range s.d[:s.n+s.m] {
		switch s.state[j] {
		case stLower:
			dual = dual || dj < -dualTol
		case stUpper:
			dual = dual || dj > dualTol
		case stFree:
			dual = dual || math.Abs(dj) > dualTol
		}
	}
	return true, dual
}

// Property: after every step of a random run of edits — cut rows added
// binding or slack, rows deleted (nonbasic slacks among them, sometimes
// every cut row at once), bounds moved, rows toggled, costs flipped in
// sign — the warm Solve agrees with a fresh solver on the same rows and
// bounds, in status and in objective to 1e-7 relative, and every
// Optimal answer carries a KKT certificate. A step applies one or two
// edits, so some warm starts are both primal and dual infeasible; the
// test asserts that some were. Some steps reload a snapshot Basis taken
// after an earlier step, after this step's edits, as a search tree that
// jumps reloads a parent's basis; a snapshot taken before a DeleteRows
// must be refused. The reload decisions draw from a second source, so
// they do not shift the stream the edits draw from.
func TestWarmEditsMatchFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	reload := rand.New(rand.NewSource(36))
	var both, deletedNonbasic, solves, reloads, refused int
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(8)
		p := randomFeasibleLP(rng, n, 1+rng.Intn(8))
		w := &warmMirror{p: p.Clone()}
		for range p.Rows {
			w.enabled = append(w.enabled, true)
			w.cut = append(w.cut, false)
		}
		s := NewSolver(p)
		var snap *Basis
		deletedSince := false
		last := &Solution{Status: IterLimit}
		if trial%4 != 0 { // every fourth run starts editing before any basis exists
			last = s.Solve()
		}
		for step := 0; step < 14; step++ {
			for edits := 1 + rng.Intn(2); edits > 0; edits-- {
				switch op := rng.Intn(7); op {
				case 0, 1: // a cut row through a shifted point: binding (op 0) or slack
					var coefs []Nonzero
					var ax float64
					for j := 0; j < n; j++ {
						if rng.Float64() < 0.7 {
							v := rng.NormFloat64()
							coefs = append(coefs, Nonzero{j, v})
							x := (p.Lo[j] + p.Up[j]) / 2
							if last.Status == Optimal {
								x = last.X[j]
							}
							ax += v * x
						}
					}
					if len(coefs) == 0 {
						continue
					}
					d := 0.2 + rng.Float64()
					if op == 0 {
						d = -d
					}
					if rng.Intn(2) == 0 {
						s.AddRow(LE, ax+d, coefs)
						w.addRow(LE, ax+d, coefs, true)
					} else {
						s.AddRow(GE, ax-d, coefs)
						w.addRow(GE, ax-d, coefs, true)
					}
				case 2: // delete rows, the nonbasic slacks likelier
					if s.NumRows() == 0 {
						continue
					}
					if s.hasBasis && s.fac.m != s.m {
						s.Solve() // the basis of the added rows decides which slacks are nonbasic
					}
					del := make([]bool, s.NumRows())
					all := rng.Intn(4) == 0
					for i := range del {
						nonbasic := s.hasBasis && s.state[s.n+i] != stBasic
						switch {
						case all:
							del[i] = w.cut[i]
						case nonbasic:
							del[i] = rng.Float64() < 0.5
						default:
							del[i] = rng.Float64() < 0.15
						}
						if del[i] && nonbasic {
							deletedNonbasic++
						}
					}
					s.DeleteRows(del)
					w.deleteRows(del)
					deletedSince = true
				case 3: // move a bound, sometimes to infinity
					j := rng.Intn(n)
					lo, up := p.Lo[j], p.Up[j]
					switch rng.Intn(4) {
					case 0:
						lo = lo + (up-lo)*rng.Float64()*0.8
					case 1:
						up = up - (up-lo)*rng.Float64()*0.8
					case 2:
						lo = math.Inf(-1)
					}
					s.SetBound(j, lo, up)
					w.p.Lo[j], w.p.Up[j] = lo, up
				case 4: // toggle a row
					if s.NumRows() == 0 {
						continue
					}
					i := rng.Intn(s.NumRows())
					w.enabled[i] = !w.enabled[i]
					s.SetRowEnabled(i, w.enabled[i])
				default: // flip a cost's sign
					j := rng.Intn(n)
					w.p.Obj[j] = -w.p.Obj[j]
					s.SetObj(j, w.p.Obj[j])
				}
			}
			if snap != nil && reload.Intn(3) == 0 {
				if deletedSince {
					if s.SetBasis(snap) {
						t.Fatalf("trial %d step %d: a snapshot taken before DeleteRows was installed", trial, step)
					}
					snap = nil
					refused++
				} else if s.SetBasis(snap) {
					reloads++
				}
			}
			if pr, du := startInfeasibility(s); pr && du {
				both++
			}
			warm := s.Solve()
			solves++
			q, kept := w.fresh()
			fresh := NewSolver(q).Solve()
			if warm.Status != fresh.Status {
				t.Fatalf("trial %d step %d: warm %v, fresh %v", trial, step, warm.Status, fresh.Status)
			}
			if warm.Status == Optimal {
				if math.Abs(warm.Obj-fresh.Obj) > 1e-7*(1+math.Abs(fresh.Obj)) {
					t.Fatalf("trial %d step %d: warm obj %v, fresh %v", trial, step, warm.Obj, fresh.Obj)
				}
				verifyOptimal(t, q, restrictDuals(warm, kept))
				verifyOptimal(t, q, fresh)
			}
			last = warm
			if reload.Intn(3) == 0 {
				snap = s.Basis(&Basis{})
				deletedSince = false
			}
		}
	}
	t.Logf("%d solves, %d started primal and dual infeasible, %d nonbasic slacks deleted, %d snapshots reloaded, %d refused",
		solves, both, deletedNonbasic, reloads, refused)
	if both == 0 || deletedNonbasic == 0 || reloads == 0 || refused == 0 {
		t.Fatalf("no start was both primal and dual infeasible (%d), no nonbasic slack was deleted (%d), or no snapshot was reloaded (%d) or refused (%d)",
			both, deletedNonbasic, reloads, refused)
	}
}

// restrictDuals returns sol with the row duals of the rows in kept only,
// the numbering of the problem the disabled rows were left out of.
func restrictDuals(sol *Solution, kept []int) *Solution {
	r := *sol
	r.Duals = make([]float64, len(kept))
	for k, i := range kept {
		r.Duals[k] = sol.Duals[i]
	}
	return &r
}

// Deleting a row that binds at the optimum: its slack is nonbasic, is
// pivoted into the basis, and the re-solve reaches the optimum of the
// remaining rows.
func TestDeleteBindingRow(t *testing.T) {
	// min −x − 2y over [0,10]² s.t. x + y ≤ 4, y ≤ 3, x ≤ 3: (1, 3), −7,
	// with the first two rows binding.
	p := NewProblem()
	x := p.AddVar(0, 10, -1)
	y := p.AddVar(0, 10, -2)
	p.AddRow(LE, 4, []Nonzero{{x, 1}, {y, 1}})
	p.AddRow(LE, 3, []Nonzero{{y, 1}})
	p.AddRow(LE, 3, []Nonzero{{x, 1}})
	s := NewSolver(p)
	if sol := s.Solve(); sol.Status != Optimal || math.Abs(sol.Obj+7) > 1e-9 {
		t.Fatalf("first solve %v, obj %v; want optimal −7", sol.Status, sol.Obj)
	}
	if s.state[s.n+1] == stBasic {
		t.Fatal("the binding row y ≤ 3 has a basic slack")
	}
	s.DeleteRows([]bool{false, true, false})
	if s.NumRows() != 2 {
		t.Fatalf("%d rows after deleting 1 of 3", s.NumRows())
	}
	q := NewProblem()
	q.AddVar(0, 10, -1)
	q.AddVar(0, 10, -2)
	q.AddRow(LE, 4, []Nonzero{{x, 1}, {y, 1}})
	q.AddRow(LE, 3, []Nonzero{{x, 1}})
	sol := s.Solve()
	verifyOptimal(t, q, sol)
	if math.Abs(sol.Obj+8) > 1e-9 || math.Abs(sol.X[y]-4) > 1e-9 {
		t.Fatalf("after deleting y ≤ 3: obj %v at %v, want −8 at (0, 4)", sol.Obj, sol.X)
	}
}
