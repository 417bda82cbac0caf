package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameSolve reports how two solves differ, or "" when they agree bit for
// bit: status, iteration count, objective and primal point.
func sameSolve(a, b *Solution) string {
	switch {
	case a.Status != b.Status:
		return "status " + a.Status.String() + " vs " + b.Status.String()
	case a.Iters != b.Iters:
		return "iterations differ"
	case math.Float64bits(a.Obj) != math.Float64bits(b.Obj):
		return "objective bits differ"
	case !slices.EqualFunc(a.X, b.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }):
		return "primal point bits differ"
	}
	return ""
}

// sameBasis reports whether two snapshots hold the same columns, states
// and weight bits.
func sameBasis(a, b *Basis) bool {
	return a.n == b.n && a.m == b.m && a.epoch == b.epoch && slices.Equal(a.state, b.state) &&
		slices.EqualFunc(a.weight, b.weight, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// Property: a snapshot fully determines the solves that follow it. A
// solver with a history of pivots, refactors, added rows and moved
// bounds that reloads its own snapshot (SetBasis(Basis())) and a fresh
// solver of the same rows and bounds that loads the same snapshot then
// solve the same edits pivot for pivot: same iteration counts, same
// objective and point bits, same snapshots after every solve. Reloading
// is a fixed point: the snapshot of a reloaded basis is the snapshot. On
// the slack basis, where positions already ascend, the weights are 1 and
// the factor is fresh, the round trip changes nothing at all: the solve
// matches one without it pivot for pivot.
func TestBasisRoundTripReplaysPivotForPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		p := randomFeasibleLP(rng, n, 2+rng.Intn(10))

		plain, tripped := NewSolver(p), NewSolver(p)
		plain.resetSlackBasis()
		tripped.resetSlackBasis()
		if !tripped.SetBasis(tripped.Basis(&Basis{})) {
			t.Fatalf("trial %d: the slack basis was not reloaded", trial)
		}
		if d := sameSolve(plain.Solve(), tripped.Solve()); d != "" {
			t.Fatalf("trial %d: from the slack basis, the round trip changed the solve: %s", trial, d)
		}

		var edits []func(*Solver)
		edit := func() func(*Solver) {
			switch rng.Intn(4) {
			case 0: // a cut through the midpoint the rows are built around
				var coefs []Nonzero
				var ax float64
				for j := 0; j < n; j++ {
					if rng.Float64() < 0.6 {
						v := rng.NormFloat64()
						coefs = append(coefs, Nonzero{j, v})
						ax += v * (p.Lo[j] + p.Up[j]) / 2
					}
				}
				rhs := ax + rng.Float64()
				return func(s *Solver) { s.AddRow(LE, rhs, coefs) }
			case 1:
				j := rng.Intn(n)
				mid := (p.Lo[j] + p.Up[j]) / 2
				lo, up := mid-rng.Float64()*(mid-p.Lo[j]), mid+rng.Float64()*(p.Up[j]-mid)
				return func(s *Solver) { s.SetBound(j, lo, up) }
			case 2:
				i, on := rng.Intn(p.NumRows()), rng.Intn(2) == 0
				return func(s *Solver) { s.SetRowEnabled(i, on) }
			default:
				j, c := rng.Intn(n), rng.NormFloat64()
				return func(s *Solver) { s.SetObj(j, c) }
			}
		}
		s := NewSolver(p)
		s.Solve()
		for range 2 + rng.Intn(6) {
			e := edit()
			e(s)
			edits = append(edits, e)
			s.Solve()
		}
		snap := s.Basis(&Basis{})
		if !s.SetBasis(snap) {
			t.Fatalf("trial %d: a snapshot of a factored basis was refused or singular", trial)
		}
		if again := s.Basis(&Basis{}); !sameBasis(snap, again) {
			t.Fatalf("trial %d: reloading a snapshot changed it", trial)
		}
		f := NewSolver(p)
		for _, e := range edits {
			e(f)
		}
		if !f.SetBasis(snap) {
			t.Fatalf("trial %d: a fresh solver refused the snapshot", trial)
		}
		for step := 0; step < 6; step++ {
			e := edit()
			e(s)
			e(f)
			if d := sameSolve(s.Solve(), f.Solve()); d != "" {
				t.Fatalf("trial %d step %d: the reloaded and the fresh solver part: %s", trial, step, d)
			}
			if !sameBasis(s.Basis(&Basis{}), f.Basis(&Basis{})) {
				t.Fatalf("trial %d step %d: the two solvers end on different bases", trial, step)
			}
		}
	}
}

// A snapshot whose basis the factor finds singular gives way to the
// all-slack basis, and the solve from there is right.
func TestSetBasisSingularFallsBackToSlackBasis(t *testing.T) {
	p := NewProblem()
	p.AddVar(0, 10, -1)
	p.AddVar(0, 10, -2)
	p.AddVar(0, 10, -1)
	// Columns 0 and 1 are parallel in rows 0 and 1.
	p.AddRow(LE, 4, []Nonzero{{0, 1}, {1, 1}, {2, 1}})
	p.AddRow(LE, 6, []Nonzero{{0, 2}, {1, 2}, {2, -1}})
	p.AddRow(GE, 1, []Nonzero{{0, 1}, {2, 3}})
	forced := NewSolver(p)
	forced.ForceBasis([]int{0, 1, 5})
	snap := forced.Basis(&Basis{})

	s := NewSolver(p)
	if s.SetBasis(snap) {
		t.Fatal("SetBasis reports a singular basis installed")
	}
	if want := []int{3, 4, 5}; !slices.Equal(s.basis, want) {
		t.Fatalf("basis after the fallback %v, want the slack basis %v", s.basis, want)
	}
	got := s.Solve()
	verifyOptimal(t, p, got)
	if want := NewSolver(p).Solve(); math.Abs(got.Obj-want.Obj) > 1e-9 {
		t.Fatalf("objective %v after the fallback, a fresh solve %v", got.Obj, want.Obj)
	}
}

// A snapshot taken before a DeleteRows describes other rows, even once
// as many rows have been added back: SetBasis refuses it, and an empty
// snapshot too, leaving the basis as it was.
func TestSetBasisRefusesSnapshotBeforeDeleteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleLP(rng, 8, 6)
	s := NewSolver(p)
	if s.SetBasis(s.Basis(&Basis{})) {
		t.Fatal("the snapshot of a solver with no basis was installed")
	}
	if sol := s.Solve(); sol.Status != Optimal {
		t.Fatalf("solve: %v", sol.Status)
	}
	snap := s.Basis(&Basis{})
	del := make([]bool, s.NumRows())
	del[1] = true
	s.DeleteRows(del)
	check := func(what string) {
		t.Helper()
		basis, state := slices.Clone(s.basis), slices.Clone(s.state)
		if s.SetBasis(snap) {
			t.Fatalf("%s: a snapshot taken before DeleteRows was installed", what)
		}
		if !slices.Equal(basis, s.basis) || !slices.Equal(state, s.state) {
			t.Fatalf("%s: the refused snapshot changed the basis", what)
		}
	}
	check("fewer rows")
	r := p.Rows[1]
	s.AddRow(r.Sense, r.RHS, r.Coefs)
	check("as many rows again")
	q := p.Clone()
	q.Rows = append(append(q.Rows[:1:1], q.Rows[2:]...), r)
	verifyOptimal(t, q, s.Solve())
}
