package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/misdp/testsets"
	"repro/internal/num"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// model is the test's own copy of the rows a Solver was given, from
// which the dense basis matrix of the oracle is assembled. It shares no
// code with the factorization under test.
type model struct {
	n    int // structural columns; column n+i is the slack of row i
	rows [][]lp.Nonzero
}

func modelOf(p *lp.Problem) *model {
	md := &model{n: p.NumVars()}
	for _, r := range p.Rows {
		md.rows = append(md.rows, r.Coefs)
	}
	return md
}

// dense returns the basis matrix (row-major) and its transpose.
func (md *model) dense(basis []int) (b, bt []float64) {
	m := len(md.rows)
	pos := make(map[int]int, m)
	for p, j := range basis {
		pos[j] = p
	}
	b = make([]float64, m*m)
	for i, row := range md.rows {
		for _, nz := range row {
			if p, ok := pos[nz.Col]; ok {
				b[i*m+p] += nz.Val
			}
		}
		if p, ok := pos[md.n+i]; ok {
			b[i*m+p] = 1
		}
	}
	bt = make([]float64, m*m)
	for i := 0; i < m; i++ {
		for p := 0; p < m; p++ {
			bt[p*m+i] = b[i*m+p]
		}
	}
	return b, bt
}

// checkAgainstOracle compares the solver's ftran and btran with dense LU
// solves of the explicit basis matrix on dense and unit right-hand sides.
func checkAgainstOracle(t *testing.T, what string, s *lp.Solver, md *model, rng *rand.Rand) {
	t.Helper()
	m := len(md.rows)
	b, bt := md.dense(s.BasicCols())
	lu, err := linalg.FactorLU(m, b)
	if err != nil {
		t.Fatalf("%s: oracle cannot factor the basis: %v", what, err)
	}
	lut, err := linalg.FactorLU(m, bt)
	if err != nil {
		t.Fatalf("%s: oracle cannot factor the transposed basis: %v", what, err)
	}
	for trial := 0; trial < 4; trial++ {
		rhs := make([]float64, m)
		if trial%2 == 0 {
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
		} else {
			rhs[rng.Intn(m)] = 1
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"ftran", s.Ftran(rhs), lu.Solve(rhs)},
			{"btran", s.Btran(rhs), lut.Solve(rhs)},
		} {
			var scale, diff float64
			for i := range c.want {
				scale = math.Max(scale, math.Abs(c.want[i]))
				diff = math.Max(diff, math.Abs(c.got[i]-c.want[i]))
			}
			if !(diff <= 1e-9*math.Max(1, scale)) {
				t.Fatalf("%s: %s differs from the dense oracle by %.3g (solution scale %.3g)", what, c.name, diff, scale)
			}
		}
	}
}

// bringIn makes a random nonbasic, nonzero column basic through the
// simplex's own pivot, and reports whether the factor was rebuilt.
func bringIn(t *testing.T, what string, s *lp.Solver, md *model, rng *rand.Rand) (refactored bool) {
	t.Helper()
	total := md.n + len(md.rows)
	for tries := 0; tries <= 100*total; tries++ {
		enter := rng.Intn(total)
		basic := false
		for _, j := range s.BasicCols() {
			basic = basic || j == enter
		}
		if basic || enter < md.n && !md.hasColumn(enter) {
			continue
		}
		_, refactored = s.Replace(enter)
		return refactored
	}
	t.Fatalf("%s: no nonbasic column left to bring in", what)
	return false
}

// exerciseUpdates checks the live factor, then after 1, 10 and 100 basis
// changes (which cross the refactor trigger on the way), then across a
// forced refactor.
func exerciseUpdates(t *testing.T, what string, s *lp.Solver, md *model, rng *rand.Rand) {
	t.Helper()
	checkAgainstOracle(t, what+", as recorded", s, md, rng)
	done, rebuilt := 0, 0
	for _, target := range []int{1, 10, 100} {
		for ; done < target; done++ {
			if bringIn(t, what, s, md, rng) {
				rebuilt++
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("%s, after %d updates", what, done), s, md, rng)
	}
	if rebuilt == 0 {
		t.Fatalf("%s: 100 updates never reached the refactor trigger", what)
	}
	if !s.Refactor() {
		t.Fatalf("%s: forced refactor reports a singular basis", what)
	}
	if _, _, etas := s.FactorShape(); etas != 0 {
		t.Fatalf("%s: %d eta columns survived the refactor", what, etas)
	}
	checkAgainstOracle(t, what+", after the forced refactor", s, md, rng)
}

func (md *model) hasColumn(j int) bool {
	for _, row := range md.rows {
		for _, nz := range row {
			if nz.Col == j && nz.Val != 0 {
				return true
			}
		}
	}
	return false
}

func basicStructurals(s *lp.Solver, n int) int {
	k := 0
	for _, j := range s.BasicCols() {
		if j < n {
			k++
		}
	}
	return k
}

// randomBasis is a factored basis of a random sparse LP of 20–80 rows.
// Column j < m carries a strong entry in row j, so any mix of those
// columns and slacks is a nonsingular basis; everything else is sparse
// noise.
func randomBasis(t *testing.T, rng *rand.Rand) (*lp.Solver, *model) {
	t.Helper()
	m := 20 + rng.Intn(60)
	n := m + 10 + rng.Intn(30)
	p := lp.NewProblem()
	for j := 0; j < n; j++ {
		p.AddVar(0, 1, 0)
	}
	for i := 0; i < m; i++ {
		coefs := []lp.Nonzero{{Col: i, Val: 4 + rng.Float64()}}
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < 3/float64(n) {
				coefs = append(coefs, lp.Nonzero{Col: j, Val: rng.Float64()*2 - 1})
			}
		}
		p.AddRow(lp.LE, 1, coefs)
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
		if rng.Float64() < 0.5 {
			basis[i] = i
		}
	}
	rng.Shuffle(m, func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	s := lp.NewSolver(p)
	s.ForceBasis(basis)
	if !s.Refactor() {
		t.Fatalf("a diagonally strong basis (m=%d) reported singular", m)
	}
	return s, modelOf(p)
}

// steinerCutLoopBasis is the optimal basis after six separation rounds
// of the directed-cut LP of a PUC hypercube analogue.
func steinerCutLoopBasis(t *testing.T) (*lp.Solver, *model) {
	t.Helper()
	inst, p := steinerLP(puc.HypercubeSpread(5, 16, 100, 170, 4))
	md := modelOf(p)
	s := lp.NewSolver(p)
	sol := s.Solve()
	for round := 0; round < 6 && sol.Status == lp.Optimal; round++ {
		for _, c := range steinerCuts(inst, sol.X, len(inst.VarArc)) {
			s.AddRow(lp.GE, 1, c)
			md.rows = append(md.rows, c)
		}
		sol = s.Solve()
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("cut loop ended %v", sol.Status)
	}
	return s, md
}

// eigencutLoopBasis is the optimal basis of the LP-relaxed TTD root once
// eigenvector cuts have brought it to 40–120 dense rows.
func eigencutLoopBasis(t *testing.T) (*lp.Solver, *model) {
	t.Helper()
	inst := testsets.TTD(4, 12, 2, 6)
	p := eigenLP(inst)
	md := modelOf(p)
	s := lp.NewSolver(p)
	sol := s.Solve()
	for len(md.rows) < 120 && sol.Status == lp.Optimal {
		cuts, rhs := eigenCuts(inst, sol.X)
		if len(cuts) == 0 {
			break
		}
		for k, c := range cuts {
			s.AddRow(lp.LE, rhs[k], c)
			md.rows = append(md.rows, c)
		}
		sol = s.Solve()
	}
	if sol.Status != lp.Optimal || len(md.rows) < 40 {
		t.Fatalf("eigencut loop ended %v with %d rows", sol.Status, len(md.rows))
	}
	return s, md
}

func TestFactorMatchesDenseOracleOnRandomBases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		s, md := randomBasis(t, rng)
		exerciseUpdates(t, fmt.Sprintf("random basis %d (m=%d)", trial, len(md.rows)), s, md, rng)
	}
}

func TestFactorMatchesDenseOracleOnSteinerCutLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, md := steinerCutLoopBasis(t)
	// The peel must leave a nucleus no larger than the structural part of
	// the basis, which in turn is a fraction of the rows.
	m, nucleus, _ := s.FactorShape()
	if k := basicStructurals(s, md.n); nucleus > k || 2*k > m {
		t.Fatalf("m=%d, %d basic structurals, nucleus %d: the slack peel is not doing its job", m, k, nucleus)
	}
	exerciseUpdates(t, fmt.Sprintf("Steiner cut-loop basis (m=%d, nucleus %d)", m, nucleus), s, md, rng)
}

func TestFactorMatchesDenseOracleOnEigencutLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, md := eigencutLoopBasis(t)
	m, nucleus, _ := s.FactorShape()
	if k := basicStructurals(s, md.n); nucleus > k {
		t.Fatalf("m=%d, %d basic structurals, nucleus %d", m, k, nucleus)
	}
	exerciseUpdates(t, fmt.Sprintf("eigencut-loop basis (m=%d, nucleus %d)", m, nucleus), s, md, rng)
}

// The kernels must return what the ones they replaced returned, equal
// under ==: ftran and btran over a sparse eta file, and yᵀA column by
// column (lp's KernelDiff holds those oracles). Checked on random and
// cut-loop bases with 0, 1, 10 and 31 etas stacked, the last one short
// of the refactor trigger, for dense, unit and ±1 right-hand sides.
func TestKernelsMatchSparseEtaOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type basisCase struct {
		what  string
		basis func(*testing.T) (*lp.Solver, *model)
	}
	cases := []basisCase{
		{"Steiner cut-loop basis", steinerCutLoopBasis},
		{"eigencut-loop basis", eigencutLoopBasis},
	}
	random := func(t *testing.T) (*lp.Solver, *model) { return randomBasis(t, rng) }
	for trial := 0; trial < 3; trial++ {
		cases = append(cases, basisCase{fmt.Sprintf("random basis %d", trial), random})
	}
	for _, c := range cases {
		s, md := c.basis(t)
		if !s.Refactor() {
			t.Fatalf("%s: singular", c.what)
		}
		m := len(md.rows)
		done := 0
		for _, target := range []int{0, 1, 10, 31} {
			for ; done < target; done++ {
				if bringIn(t, c.what, s, md, rng) {
					t.Fatalf("%s: refactored after %d updates, before the trigger", c.what, done+1)
				}
			}
			if _, _, etas := s.FactorShape(); etas != done {
				t.Fatalf("%s: %d etas after %d updates", c.what, etas, done)
			}
			dense, unit, signs := make([]float64, m), make([]float64, m), make([]float64, m)
			unit[rng.Intn(m)] = 1
			for i := range dense {
				dense[i] = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					signs[i] = float64(1 - 2*rng.Intn(2))
				}
			}
			for _, rhs := range [][]float64{dense, unit, signs} {
				if d := s.KernelDiff(rhs); d != "" {
					t.Fatalf("%s (m=%d), %d etas: %s", c.what, m, done, d)
				}
			}
		}
	}
}

// A basis that cannot be factored must be reported, and Solve must then
// restart from the all-slack basis instead of computing with garbage.
func TestSingularBasisIsReportedAndRecovered(t *testing.T) {
	for _, c := range []struct {
		name string
		eps  float64
	}{{"singular", 0}, {"near-singular", 1e-13}} {
		p := lp.NewProblem()
		p.AddVar(0, 10, -1)
		p.AddVar(0, 10, -2)
		p.AddVar(0, 10, -1)
		// Columns 0 and 1 are parallel (up to eps) in rows 0 and 1.
		p.AddRow(lp.LE, 4, []lp.Nonzero{{Col: 0, Val: 1}, {Col: 1, Val: 1}, {Col: 2, Val: 1}})
		p.AddRow(lp.LE, 6, []lp.Nonzero{{Col: 0, Val: 2}, {Col: 1, Val: 2 + c.eps}, {Col: 2, Val: -1}})
		p.AddRow(lp.GE, 1, []lp.Nonzero{{Col: 0, Val: 1}, {Col: 2, Val: 3}})
		want := lp.NewSolver(p).Solve()

		s := lp.NewSolver(p)
		s.ForceBasis([]int{0, 1, 5})
		if s.Refactor() {
			t.Fatalf("%s: the factor accepted a basis with two parallel columns", c.name)
		}
		s.ForceBasis([]int{0, 1, 5})
		got := s.Solve()
		if got.Status != want.Status || !num.RelEq(got.Obj, want.Obj, num.FeasTol) {
			t.Fatalf("%s: recovered solve gives %v %v, a fresh solve %v %v", c.name, got.Status, got.Obj, want.Status, want.Obj)
		}
		if k := basicStructurals(s, 2); k == 2 {
			t.Fatalf("%s: final basis %v still holds both parallel columns", c.name, s.BasicCols())
		}
	}
}

// Cut-loop replay: one violated cut per round, and after every 20th
// round the warm solver must agree with a cold solve of everything added
// so far. Generalises TestRowToggleMatchesFreshSolve to the AddRow path
// over hundreds of rows, refactors and eta updates.
func TestCutLoopReplayMatchesFreshSolve(t *testing.T) {
	for _, g := range []struct {
		name string
		spg  *steiner.SPG
	}{
		{"hc-5-16", puc.HypercubeSpread(5, 16, 100, 170, 9)},
		{"bip-14-40", puc.Bipartite(14, 40, 3, true, 6)},
	} {
		inst, p := steinerLP(g.spg)
		all := p.Clone()
		s := lp.NewSolver(p)
		warm := s.Solve()
		added, checked := 0, 0
		for round := 1; warm.Status == lp.Optimal && added < 240; round++ {
			cuts := steinerCuts(inst, warm.X, 1)
			if len(cuts) == 0 {
				break
			}
			s.AddRow(lp.GE, 1, cuts[0])
			all.AddRow(lp.GE, 1, cuts[0])
			added++
			warm = s.Solve()
			if round%20 != 0 {
				continue
			}
			fresh := lp.NewSolver(all).Solve()
			if warm.Status != fresh.Status {
				t.Fatalf("%s round %d: warm %v, fresh %v", g.name, round, warm.Status, fresh.Status)
			}
			if warm.Status == lp.Optimal && !num.RelEq(warm.Obj, fresh.Obj, num.FeasTol) {
				t.Fatalf("%s round %d: warm objective %v, fresh %v", g.name, round, warm.Obj, fresh.Obj)
			}
			checked++
		}
		if added < 200 {
			t.Fatalf("%s: the cut loop closed after %d rows; the replay needs at least 200", g.name, added)
		}
		t.Logf("%s: %d cut rows, %d cold comparisons, final objective %v", g.name, added, checked, warm.Obj)
	}
}
