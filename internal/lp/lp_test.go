package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// verifyOptimal checks a full optimality certificate for a claimed optimal
// solution: primal feasibility (rows, bounds) and dual feasibility with
// complementary slackness via reduced-cost signs. A basic solution that is
// both primal and dual feasible is optimal, so this is an independent
// certificate, not a re-run of the solver.
func verifyOptimal(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	const tol = 1e-6
	for j, x := range sol.X {
		if x < p.Lo[j]-tol || x > p.Up[j]+tol {
			t.Fatalf("var %d = %v violates bounds [%v,%v]", j, x, p.Lo[j], p.Up[j])
		}
	}
	for i, r := range p.Rows {
		var ax float64
		for _, nz := range r.Coefs {
			ax += nz.Val * sol.X[nz.Col]
		}
		switch r.Sense {
		case LE:
			if ax > r.RHS+tol {
				t.Fatalf("row %d: %v > %v", i, ax, r.RHS)
			}
		case GE:
			if ax < r.RHS-tol {
				t.Fatalf("row %d: %v < %v", i, ax, r.RHS)
			}
		case EQ:
			if math.Abs(ax-r.RHS) > tol {
				t.Fatalf("row %d: %v != %v", i, ax, r.RHS)
			}
		}
	}
	// Dual feasibility of structural reduced costs: at lower bound d ≥ 0,
	// at upper bound d ≤ 0, strictly interior d ≈ 0.
	for j, x := range sol.X {
		d := sol.RedCosts[j]
		atLo := x < p.Lo[j]+tol
		atUp := x > p.Up[j]-tol
		switch {
		case atLo && atUp:
		case atLo:
			if d < -1e-5 {
				t.Fatalf("var %d at lower bound has reduced cost %v < 0", j, d)
			}
		case atUp:
			if d > 1e-5 {
				t.Fatalf("var %d at upper bound has reduced cost %v > 0", j, d)
			}
		default:
			if math.Abs(d) > 1e-5 {
				t.Fatalf("interior var %d has nonzero reduced cost %v", j, d)
			}
		}
	}
	// Row dual signs: min problem, aᵀx ≤ b has y ≤ 0 ⇒ slack reduced cost
	// −y ≥ 0… the slack conventions are checked indirectly through the
	// objective identity below.
	var dualObj float64
	for i, r := range p.Rows {
		dualObj += sol.Duals[i] * r.RHS
	}
	for j := range sol.X {
		d := sol.RedCosts[j]
		if math.Abs(d) < 1e-9 {
			continue
		}
		if d > 0 && !math.IsInf(p.Lo[j], -1) {
			dualObj += d * p.Lo[j]
		} else if d < 0 && !math.IsInf(p.Up[j], 1) {
			dualObj += d * p.Up[j]
		}
	}
	if math.Abs(dualObj-sol.Obj) > 1e-5*(1+math.Abs(sol.Obj)) {
		t.Fatalf("strong duality violated: dual %v vs primal %v", dualObj, sol.Obj)
	}
}

func TestSimpleLP(t *testing.T) {
	// min -x - 2y s.t. x+y <= 4, x <= 3, y <= 2, x,y >= 0 → x=2,y=2, obj -6.
	p := NewProblem()
	x := p.AddVar(0, 3, -1)
	y := p.AddVar(0, 2, -2)
	p.AddRow(LE, 4, []Nonzero{{x, 1}, {y, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-(-6)) > 1e-8 {
		t.Fatalf("obj = %v, want -6", sol.Obj)
	}
	if math.Abs(sol.X[x]-2) > 1e-8 || math.Abs(sol.X[y]-2) > 1e-8 {
		t.Fatalf("solution = %v, want [2 2]", sol.X)
	}
}

func TestEqualityRow(t *testing.T) {
	// min x+y s.t. x+y = 5, 0<=x<=10, 0<=y<=10 → obj 5.
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 1)
	p.AddRow(EQ, 5, []Nonzero{{x, 1}, {y, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-5) > 1e-8 {
		t.Fatalf("obj = %v, want 5", sol.Obj)
	}
}

func TestGERowNeedsPhase1(t *testing.T) {
	// min 2x+3y s.t. x+y >= 4, x-y >= -1, x,y >= 0.
	// Optimum at intersection? Candidates: (4,0) obj 8; (1.5,2.5) obj 10.5 →
	// best is (4,0) obj 8... check x-y>=-1: 4 >= -1 ok. So obj 8.
	p := NewProblem()
	x := p.AddVar(0, Inf, 2)
	y := p.AddVar(0, Inf, 3)
	p.AddRow(GE, 4, []Nonzero{{x, 1}, {y, 1}})
	p.AddRow(GE, -1, []Nonzero{{x, 1}, {y, -1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-8) > 1e-8 {
		t.Fatalf("obj = %v, want 8", sol.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1, 1)
	p.AddRow(GE, 5, []Nonzero{{x, 1}})
	sol := NewSolver(p).Solve()
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEqualities(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1)
	y := p.AddVar(0, Inf, 1)
	p.AddRow(EQ, 1, []Nonzero{{x, 1}, {y, 1}})
	p.AddRow(EQ, 3, []Nonzero{{x, 1}, {y, 1}})
	sol := NewSolver(p).Solve()
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	p.AddRow(GE, 0, []Nonzero{{x, 1}})
	sol := NewSolver(p).Solve()
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -7 as a row (x free) → obj -7.
	p := NewProblem()
	x := p.AddVar(math.Inf(-1), Inf, 1)
	p.AddRow(GE, -7, []Nonzero{{x, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-(-7)) > 1e-8 {
		t.Fatalf("obj = %v, want -7", sol.Obj)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y, -5 <= x <= 5, -3 <= y <= 3, x + y >= -6 → x=-5, y=-1? No:
	// min of x+y subject to x+y >= -6 is -6.
	p := NewProblem()
	x := p.AddVar(-5, 5, 1)
	y := p.AddVar(-3, 3, 1)
	p.AddRow(GE, -6, []Nonzero{{x, 1}, {y, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-(-6)) > 1e-8 {
		t.Fatalf("obj = %v, want -6", sol.Obj)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degeneracy: multiple constraints active at the optimum.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	y := p.AddVar(0, Inf, -1)
	p.AddRow(LE, 1, []Nonzero{{x, 1}})
	p.AddRow(LE, 1, []Nonzero{{y, 1}})
	p.AddRow(LE, 2, []Nonzero{{x, 1}, {y, 1}})
	p.AddRow(LE, 2, []Nonzero{{x, 2}, {y, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	// x+y<=2 and 2x+y<=2 with x,y<=1 → best is x=0? obj -(x+y): max x+y.
	// 2x+y<=2, x+y<=2, y<=1 → x=0.5,y=1 gives 1.5; x=0,y=1 gives 1. So -1.5.
	if math.Abs(sol.Obj-(-1.5)) > 1e-8 {
		t.Fatalf("obj = %v, want -1.5", sol.Obj)
	}
}

func randomFeasibleLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar(-2-rng.Float64()*3, 2+rng.Float64()*3, rng.NormFloat64())
	}
	// Build rows through a known interior point so the LP is feasible.
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = (p.Lo[j] + p.Up[j]) / 2
	}
	for i := 0; i < m; i++ {
		var coefs []Nonzero
		var ax float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				v := rng.NormFloat64()
				coefs = append(coefs, Nonzero{j, v})
				ax += v * x0[j]
			}
		}
		if len(coefs) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow(LE, ax+rng.Float64()*2, coefs)
		case 1:
			p.AddRow(GE, ax-rng.Float64()*2, coefs)
		default:
			p.AddRow(EQ, ax, coefs)
		}
	}
	return p
}

// Property test: random feasible bounded LPs solve to optimality and the
// KKT certificate holds.
func TestRandomLPsKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(12)
		p := randomFeasibleLP(rng, n, m)
		sol := NewSolver(p).Solve()
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v on a feasible bounded LP", trial, sol.Status)
		}
		verifyOptimal(t, p, sol)
	}
}

// Warm-started dual simplex after a bound change must agree with a fresh
// primal solve of the modified problem.
func TestWarmStartBoundChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		p := randomFeasibleLP(rng, n, m)
		s := NewSolver(p)
		first := s.Solve()
		if first.Status != Optimal {
			t.Fatalf("trial %d: first solve %v", trial, first.Status)
		}
		// Tighten a random variable's bounds (branching step).
		j := rng.Intn(n)
		mid := (p.Lo[j] + p.Up[j]) / 2
		var lo, up float64
		if rng.Intn(2) == 0 {
			lo, up = p.Lo[j], mid
		} else {
			lo, up = mid, p.Up[j]
		}
		s.SetBound(j, lo, up)
		warm := s.Solve()

		p2 := p.Clone()
		p2.Lo[j], p2.Up[j] = lo, up
		fresh := NewSolver(p2).Solve()
		if warm.Status != fresh.Status {
			t.Fatalf("trial %d: warm %v vs fresh %v", trial, warm.Status, fresh.Status)
		}
		if warm.Status == Optimal {
			verifyOptimal(t, p2, warm)
			if math.Abs(warm.Obj-fresh.Obj) > 1e-6*(1+math.Abs(fresh.Obj)) {
				t.Fatalf("trial %d: warm obj %v vs fresh %v", trial, warm.Obj, fresh.Obj)
			}
		}
	}
}

// Adding a violated cut and re-solving (the cutting-plane loop) must agree
// with a fresh solve of the extended LP.
func TestWarmStartAddRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		p := randomFeasibleLP(rng, n, m)
		s := NewSolver(p)
		first := s.Solve()
		if first.Status != Optimal {
			continue
		}
		// Random extra row through a shifted point.
		var coefs []Nonzero
		var ax float64
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			coefs = append(coefs, Nonzero{j, v})
			ax += v * (p.Lo[j] + p.Up[j]) / 2
		}
		rhs := ax + rng.NormFloat64()
		s.AddRow(LE, rhs, coefs)
		warm := s.Solve()

		p2 := p.Clone()
		p2.AddRow(LE, rhs, coefs)
		fresh := NewSolver(p2).Solve()
		if warm.Status != fresh.Status {
			t.Fatalf("trial %d: warm %v vs fresh %v", trial, warm.Status, fresh.Status)
		}
		if warm.Status == Optimal {
			verifyOptimal(t, p2, warm)
			if math.Abs(warm.Obj-fresh.Obj) > 1e-6*(1+math.Abs(fresh.Obj)) {
				t.Fatalf("trial %d: warm obj %v vs fresh %v", trial, warm.Obj, fresh.Obj)
			}
		}
	}
}

func TestSetObjReoptimize(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 4, -1)
	y := p.AddVar(0, 4, 0)
	p.AddRow(LE, 5, []Nonzero{{x, 1}, {y, 1}})
	s := NewSolver(p)
	sol := s.Solve()
	if math.Abs(sol.Obj-(-4)) > 1e-8 {
		t.Fatalf("obj = %v, want -4", sol.Obj)
	}
	s.SetObj(y, -2)
	sol = s.Solve()
	// Now max x+2y: y=4, x=1 → obj -9.
	if math.Abs(sol.Obj-(-9)) > 1e-8 {
		t.Fatalf("after SetObj: obj = %v, want -9", sol.Obj)
	}
}

func TestFixedVariable(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(2, 2, 3)
	y := p.AddVar(0, 10, 1)
	p.AddRow(GE, 5, []Nonzero{{x, 1}, {y, 1}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-9) > 1e-8 { // x=2 fixed, y=3 → 6+3
		t.Fatalf("obj = %v, want 9", sol.Obj)
	}
}

func TestManySequentialBoundChanges(t *testing.T) {
	// Simulates a dive in branch and bound: repeated tightenings, each
	// re-solved warm, finally compared against a fresh solve.
	rng := rand.New(rand.NewSource(13))
	p := randomFeasibleLP(rng, 8, 8)
	s := NewSolver(p)
	if st := s.Solve().Status; st != Optimal {
		t.Fatalf("initial solve: %v", st)
	}
	cur := p.Clone()
	for step := 0; step < 10; step++ {
		j := rng.Intn(8)
		lo, up := cur.Lo[j], cur.Up[j]
		mid := lo + (up-lo)*0.7
		s.SetBound(j, lo, mid)
		cur.Up[j] = mid
		warm := s.Solve()
		fresh := NewSolver(cur).Solve()
		if warm.Status != fresh.Status {
			t.Fatalf("step %d: warm %v fresh %v", step, warm.Status, fresh.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Obj-fresh.Obj) > 1e-6*(1+math.Abs(fresh.Obj)) {
			t.Fatalf("step %d: warm obj %v fresh %v", step, warm.Obj, fresh.Obj)
		}
		if warm.Status != Optimal {
			break
		}
	}
}

func TestDualsOnKnownLP(t *testing.T) {
	// min -3x -5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example).
	// Optimum x=2, y=6, obj -36; duals for rows 2 and 3 are -3/2 and -1.
	p := NewProblem()
	x := p.AddVar(0, Inf, -3)
	y := p.AddVar(0, Inf, -5)
	p.AddRow(LE, 4, []Nonzero{{x, 1}})
	p.AddRow(LE, 12, []Nonzero{{y, 2}})
	p.AddRow(LE, 18, []Nonzero{{x, 3}, {y, 2}})
	sol := NewSolver(p).Solve()
	verifyOptimal(t, p, sol)
	if math.Abs(sol.Obj-(-36)) > 1e-8 {
		t.Fatalf("obj = %v, want -36", sol.Obj)
	}
	if math.Abs(sol.Duals[0]) > 1e-8 || math.Abs(sol.Duals[1]-(-1.5)) > 1e-8 || math.Abs(sol.Duals[2]-(-1)) > 1e-8 {
		t.Fatalf("duals = %v, want [0 -1.5 -1]", sol.Duals)
	}
}

func TestIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleLP(rng, 10, 10)
	s := NewSolver(p)
	s.MaxIters = 1
	sol := s.Solve()
	if sol.Status == Optimal && sol.Iters > 1 {
		t.Fatalf("iteration limit not respected: %d iters", sol.Iters)
	}
}

// A Deadline already past stops a Solve at its first clock check, after
// at most 64 iterations, on an LP that needs more than that.
func TestDeadlineStopsSolve(t *testing.T) {
	p := randomFeasibleLP(rand.New(rand.NewSource(11)), 60, 100)
	if sol := NewSolver(p).Solve(); sol.Status != Optimal || sol.Iters <= 64 {
		t.Fatalf("without a deadline: status %v after %d iterations, want optimal after more than 64", sol.Status, sol.Iters)
	}
	s := NewSolver(p)
	s.Deadline = time.Now().Add(-time.Second)
	if sol := s.Solve(); sol.Status != IterLimit || sol.Iters > 64 {
		t.Fatalf("past deadline: status %v after %d iterations, want iterlimit within 64", sol.Status, sol.Iters)
	}
}

func TestRowEnableDisable(t *testing.T) {
	// min -x s.t. x <= 5 (row), 0 <= x <= 10.
	p := NewProblem()
	x := p.AddVar(0, 10, -1)
	r := p.AddRow(LE, 5, []Nonzero{{x, 1}})
	s := NewSolver(p)
	sol := s.Solve()
	if sol.Obj != -5 {
		t.Fatalf("obj = %v, want -5", sol.Obj)
	}
	if !s.RowEnabled(r) {
		t.Fatal("row should start enabled")
	}
	s.SetRowEnabled(r, false)
	if s.RowEnabled(r) {
		t.Fatal("row still enabled after disable")
	}
	sol = s.Solve()
	if sol.Obj != -10 { // row no longer binds
		t.Fatalf("obj with disabled row = %v, want -10", sol.Obj)
	}
	s.SetRowEnabled(r, true)
	sol = s.Solve()
	if sol.Obj != -5 {
		t.Fatalf("obj after re-enable = %v, want -5", sol.Obj)
	}
}

func TestRowToggleEquality(t *testing.T) {
	// Equality rows toggle too: x + y = 3 disabled -> free optimum.
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	y := p.AddVar(0, 10, 1)
	r := p.AddRow(EQ, 3, []Nonzero{{x, 1}, {y, 1}})
	s := NewSolver(p)
	if sol := s.Solve(); math.Abs(sol.Obj-3) > 1e-9 {
		t.Fatalf("obj = %v, want 3", sol.Obj)
	}
	s.SetRowEnabled(r, false)
	if sol := s.Solve(); math.Abs(sol.Obj) > 1e-9 {
		t.Fatalf("obj with disabled equality = %v, want 0", sol.Obj)
	}
	s.SetRowEnabled(r, true)
	if sol := s.Solve(); math.Abs(sol.Obj-3) > 1e-9 {
		t.Fatalf("obj after re-enable = %v, want 3", sol.Obj)
	}
}

// Property: toggling random subsets of rows and re-solving always agrees
// with a fresh solve of the problem restricted to the enabled rows.
func TestRowToggleMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		p := randomFeasibleLP(rng, n, 2+rng.Intn(5))
		m := p.NumRows() // the generator may skip empty rows
		if m == 0 {
			continue
		}
		s := NewSolver(p)
		if s.Solve().Status != Optimal {
			continue
		}
		for round := 0; round < 4; round++ {
			enabled := make([]bool, m)
			for i := range enabled {
				enabled[i] = rng.Float64() < 0.6
				s.SetRowEnabled(i, enabled[i])
			}
			warm := s.Solve()
			p2 := NewProblem()
			for j := 0; j < n; j++ {
				p2.AddVar(p.Lo[j], p.Up[j], p.Obj[j])
			}
			for i, r := range p.Rows {
				if enabled[i] {
					p2.AddRow(r.Sense, r.RHS, r.Coefs)
				}
			}
			fresh := NewSolver(p2).Solve()
			if warm.Status != fresh.Status {
				t.Fatalf("trial %d round %d: warm %v fresh %v", trial, round, warm.Status, fresh.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Obj-fresh.Obj) > 1e-6*(1+math.Abs(fresh.Obj)) {
				t.Fatalf("trial %d round %d: warm %v fresh %v", trial, round, warm.Obj, fresh.Obj)
			}
		}
	}
}
