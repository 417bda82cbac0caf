package testsets

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/misdp"
	"repro/internal/scip"
)

// solve runs the full pipeline and returns max Bᵀy.
func solve(t *testing.T, p *misdp.MISDP, set scip.Settings) (float64, scip.Status) {
	t.Helper()
	s := solver(p, set)
	st := s.Solve()
	if st == scip.StatusOptimal {
		return -s.Incumbent().Obj, st
	}
	return math.Inf(-1), st
}

// solver presolves p and returns the branch-and-bound solver over it.
func solver(p *misdp.MISDP, set scip.Settings) *scip.Solver {
	def := &misdp.Def{}
	data, _ := def.Presolve(p, scip.Infinity)
	prob := def.BuildModel(data.(*misdp.MISDP))
	plug := misdp.NewPlugins()
	plug.Def = def
	return scip.NewSolver(prob, set, plug)
}

// Iterate pin: node counts and LP iterations of two LP-mode solves,
// recorded when a node's LP began to start from its parent's snapshot
// after a jump in the search. Kernel changes that only reorder exact zeros leave every pivot, and so these counts, alone;
// one that moves a pivot fails here.
func TestLPIteratePin(t *testing.T) {
	for _, tc := range []struct {
		name         string
		p            *misdp.MISDP
		nodes, iters int64
	}{
		{"mkp 10,4,3", MkP(10, 4, 3), 41, 2382},
		{"ttd 4,8,2,8", TTD(4, 8, 2, 8), 137, 1924},
	} {
		s := solver(tc.p, misdp.LPSettings())
		if st := s.Solve(); st != scip.StatusOptimal {
			t.Fatalf("%s: status %v", tc.name, st)
		}
		if s.Stats.Nodes != tc.nodes || s.Stats.LPIterations != tc.iters {
			t.Errorf("%s: %d nodes / %d LP iterations, pinned %d / %d", tc.name, s.Stats.Nodes, s.Stats.LPIterations, tc.nodes, tc.iters)
		}
	}
}

// bruteTTD enumerates all integer designs.
func bruteTTD(p *misdp.MISDP, amax int) float64 {
	m := p.M
	best := math.Inf(-1)
	a := make([]float64, m)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			if p.Feasible(a, 1e-7) {
				if v := p.Eval(a); v > best {
					best = v
				}
			}
			return
		}
		for v := 0; v <= amax; v++ {
			a[i] = float64(v)
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestTTDAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := TTD(3, 5, 2, seed)
		want := bruteTTD(p, 2)
		if math.IsInf(want, -1) {
			t.Fatalf("seed %d: generated infeasible TTD", seed)
		}
		for _, set := range []scip.Settings{misdp.LPSettings(), misdp.SDPSettings()} {
			got, st := solve(t, TTD(3, 5, 2, seed), set)
			if st != scip.StatusOptimal {
				t.Fatalf("seed %d %s: status %v", seed, set.Name, st)
			}
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("seed %d %s: obj %v want %v", seed, set.Name, got, want)
			}
		}
	}
}

// bruteCLS enumerates supports and solves the restricted least squares
// via normal equations.
func bruteCLS(features, observations, k int, seed int64) float64 {
	// Regenerate the data exactly as CLS does.
	p := CLS(features, observations, k, seed)
	_ = p
	// Enumerate z-patterns with ≤ k ones and query the MISDP for the best
	// t via its own feasibility check over a fine grid would be too slow;
	// instead extract A and d from the block structure.
	blk := p.Blocks[0]
	q := blk.N - 1
	a := make([][]float64, q)
	d := make([]float64, q)
	for i := 0; i < q; i++ {
		a[i] = make([]float64, features)
		for j := 0; j < features; j++ {
			a[i][j] = -blk.A[j].At(i, q) // A stores −a_ij
		}
		d[i] = -blk.C.At(i, q)
	}
	best := math.Inf(1)
	var rec func(j, used int, support []int)
	rec = func(j, used int, support []int) {
		if j == features {
			t := residual(a, d, support)
			if t < best {
				best = t
			}
			return
		}
		rec(j+1, used, support)
		if used < k {
			rec(j+1, used+1, append(support, j))
		}
	}
	rec(0, 0, nil)
	return -best // the MISDP maximizes −t
}

// residual solves min ‖A_S x − d‖² on the support S.
func residual(a [][]float64, d []float64, support []int) float64 {
	k := len(support)
	if k == 0 {
		var r float64
		for _, v := range d {
			r += v * v
		}
		return r
	}
	// Normal equations: (AᵀA) x = Aᵀ d on the support columns.
	m := make([]float64, k*k)
	rhs := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			var acc float64
			for r := range a {
				acc += a[r][support[i]] * a[r][support[j]]
			}
			m[i*k+j] = acc
		}
		for r := range a {
			rhs[i] += a[r][support[i]] * d[r]
		}
	}
	x, err := linalg.SolveDense(k, m, rhs)
	if err != nil {
		return math.Inf(1)
	}
	var res float64
	for r := range a {
		v := -d[r]
		for i := 0; i < k; i++ {
			v += a[r][support[i]] * x[i]
		}
		res += v * v
	}
	return res
}

func TestCLSAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		want := bruteCLS(4, 6, 2, seed)
		got, st := solve(t, CLS(4, 6, 2, seed), misdp.LPSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		// The SDP block only encodes t ≥ ‖Ax−d‖², so the solver's optimum
		// may exceed the algebraic optimum by the solver tolerance.
		if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Fatalf("seed %d: obj %v want %v", seed, got, want)
		}
	}
}

func TestCLSSDPMode(t *testing.T) {
	want := bruteCLS(3, 5, 1, 7)
	got, st := solve(t, CLS(3, 5, 1, 7), misdp.SDPSettings())
	if st != scip.StatusOptimal {
		t.Fatalf("status %v", st)
	}
	if math.Abs(got-want) > 5e-2*(1+math.Abs(want)) {
		t.Fatalf("obj %v want %v", got, want)
	}
}

// bruteMkP enumerates all partitions into ≤ k classes via restricted
// growth strings.
func bruteMkP(n, k int, seed int64) float64 {
	w := MkPWeights(n, seed)
	assign := make([]int, n)
	best := math.Inf(1)
	var rec func(v, maxUsed int)
	rec = func(v, maxUsed int) {
		if v == n {
			var cost float64
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if assign[i] == assign[j] {
						cost += w[i][j]
					}
				}
			}
			if cost < best {
				best = cost
			}
			return
		}
		for c := 0; c <= maxUsed && c < k; c++ {
			assign[v] = c
			nm := maxUsed
			if c == maxUsed {
				nm++
			}
			rec(v+1, nm)
		}
	}
	rec(0, 0)
	return -best // the MISDP maximizes −Σ w_e y_e
}

func TestMkPAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		seed int64
	}{{5, 2, 1}, {5, 3, 2}, {6, 3, 3}} {
		want := bruteMkP(tc.n, tc.k, tc.seed)
		got, st := solve(t, MkP(tc.n, tc.k, tc.seed), misdp.SDPSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("n=%d k=%d: status %v", tc.n, tc.k, st)
		}
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("n=%d k=%d: obj %v want %v", tc.n, tc.k, got, want)
		}
	}
}

func TestMkPLPMode(t *testing.T) {
	want := bruteMkP(5, 2, 1)
	got, st := solve(t, MkP(5, 2, 1), misdp.LPSettings())
	if st != scip.StatusOptimal || math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
		t.Fatalf("obj %v (%v) want %v", got, st, want)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := MkP(6, 3, 42)
	b := MkP(6, 3, 42)
	if a.M != b.M || a.Eval(make([]float64, a.M)) != b.Eval(make([]float64, b.M)) {
		t.Fatal("MkP not deterministic")
	}
	for i := 0; i < a.M; i++ {
		if a.B[i] != b.B[i] {
			t.Fatal("MkP weights differ across calls")
		}
	}
	c := TTD(3, 5, 2, 42)
	d := TTD(3, 5, 2, 42)
	if c.Blocks[0].C.At(0, 0) != d.Blocks[0].C.At(0, 0) {
		t.Fatal("TTD not deterministic")
	}
}

// Regression: the SDP-relaxator mode must agree with the LP mode and the
// partition oracle on Mk-P instances where an unconverged barrier once
// caused false infeasibility declarations and wrong pruning.
func TestMkPModesAgree(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		seed int64
	}{{7, 3, 1}, {7, 3, 2}, {8, 3, 1}, {8, 3, 2}} {
		want := bruteMkP(tc.n, tc.k, tc.seed)
		lpGot, lpSt := solve(t, MkP(tc.n, tc.k, tc.seed), misdp.LPSettings())
		if lpSt != scip.StatusOptimal || math.Abs(lpGot-want) > 1e-3 {
			t.Fatalf("n=%d seed=%d LP: %v (%v) want %v", tc.n, tc.seed, lpGot, lpSt, want)
		}
		sdpGot, sdpSt := solve(t, MkP(tc.n, tc.k, tc.seed), misdp.SDPSettings())
		if sdpSt != scip.StatusOptimal {
			t.Fatalf("n=%d seed=%d SDP: status %v, want optimal (%v)", tc.n, tc.seed, sdpSt, want)
		}
		if math.Abs(sdpGot-want) > 1e-3 {
			t.Fatalf("n=%d seed=%d SDP: %v want %v", tc.n, tc.seed, sdpGot, want)
		}
	}
}

// The 16 instances of the benchmark's misdp_sdp workload (main and
// hold-out pool), with the optimum the nonlinear branch and bound reached
// before the SDP solver's Newton system was assembled from the
// coefficient matrices' structure, and the tree's node count. A change
// to the barrier kernels may reorder sums; it may not move an optimum,
// and one that leaves every node's relaxation where it was leaves the
// node counts alone too.
func TestSDPModeCatalogueOptima(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     *misdp.MISDP
		want  float64
		nodes int64
	}{
		{"cls-8-10-3-3", CLS(8, 10, 3, 3), -0.071054568013718108, 11},
		{"cls-10-12-3-4", CLS(10, 12, 3, 4), -0.087545484514358812, 7},
		{"cls-10-12-3-7", CLS(10, 12, 3, 7), -0.086830572717847276, 9},
		{"ttd-4-12-2-6", TTD(4, 12, 2, 6), -17.269628970999381, 169},
		{"ttd-4-10-2-2", TTD(4, 10, 2, 2), -13.973213020325694, 207},
		{"ttd-5-14-3-2", TTD(5, 14, 3, 2), -32.120718893955583, 179},
		{"ttd-6-16-3-8", TTD(6, 16, 3, 8), -26.161916176129658, 279},
		{"mkp-10-4-7", MkP(10, 4, 7), -16, 91},
		{"cls-8-10-3-8", CLS(8, 10, 3, 8), -0.12291613719488834, 11},
		{"mkp-7-3-6", MkP(7, 3, 6), -18, 43},
		{"cls-9-12-4-3", CLS(9, 12, 4, 3), -0.098522461592851135, 9},
		{"cls-9-12-4-5", CLS(9, 12, 4, 5), -0.10405404982977734, 13},
		{"ttd-5-16-3-6", TTD(5, 16, 3, 6), -33.876761664741558, 119},
		{"mkp-8-3-1", MkP(8, 3, 1), -21, 65},
		{"mkp-9-3-6", MkP(9, 3, 6), -28, 79},
		{"mkp-10-3-16", MkP(10, 3, 16), -32, 91},
	} {
		s := solver(tc.p, misdp.SDPSettings())
		if st := s.Solve(); st != scip.StatusOptimal {
			t.Errorf("%s: status %v, want optimal", tc.name, st)
			continue
		}
		if got := -s.Incumbent().Obj; math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: optimum %.17g, recorded %.17g", tc.name, got, tc.want)
		}
		if s.Stats.Nodes != tc.nodes {
			t.Errorf("%s: %d nodes, pinned %d", tc.name, s.Stats.Nodes, tc.nodes)
		}
	}
}
