package scip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// knapsackProb builds max Σ v_i x_i s.t. Σ w_i x_i ≤ cap, x binary —
// encoded as minimization of −v.
func knapsackProb(values, weights []float64, capacity float64) *Prob {
	p := &Prob{Name: "knapsack", IntegralObj: true}
	var coefs []lp.Nonzero
	for i := range values {
		j := p.AddVar("x", 0, 1, -values[i], Binary)
		coefs = append(coefs, lp.Nonzero{Col: j, Val: weights[i]})
	}
	p.AddRow("cap", lp.LE, capacity, coefs)
	return p
}

// bruteKnapsack enumerates all subsets.
func bruteKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 3, 4, 1}
	p := knapsackProb(values, weights, 10)
	s := NewSolver(p, DefaultSettings(), nil)
	st := s.Solve()
	if st != StatusOptimal {
		t.Fatalf("status = %v", st)
	}
	want := bruteKnapsack(values, weights, 10)
	if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
		t.Fatalf("obj = %v, want %v", -s.Incumbent().Obj, want)
	}
	if s.Stats.DeadEnds != 0 {
		t.Fatalf("dead ends: %d", s.Stats.DeadEnds)
	}
}

func TestRandomKnapsacksAllNodeSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		var totW float64
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			totW += weights[i]
		}
		capacity := math.Floor(totW / 2)
		want := bruteKnapsack(values, weights, capacity)
		for _, sel := range []NodeSelection{BestBound, DepthFirst, HybridPlunge} {
			set := DefaultSettings()
			set.NodeSel = sel
			set.Seed = int64(trial)
			p := knapsackProb(values, weights, capacity)
			s := NewSolver(p, set, nil)
			if st := s.Solve(); st != StatusOptimal {
				t.Fatalf("trial %d sel %d: status %v", trial, sel, st)
			}
			if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
				t.Fatalf("trial %d sel %d: obj %v want %v", trial, sel, -s.Incumbent().Obj, want)
			}
		}
	}
}

func TestBranchRulesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 8
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(30))
			weights[i] = float64(1 + rng.Intn(12))
		}
		want := bruteKnapsack(values, weights, 30)
		for _, br := range []BranchRule{BranchMostFractional, BranchPseudoCost, BranchRandom} {
			set := DefaultSettings()
			set.Branching = br
			set.Seed = 99
			s := NewSolver(knapsackProb(values, weights, 30), set, nil)
			s.Solve()
			if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
				t.Fatalf("trial %d rule %d: obj %v want %v", trial, br, -s.Incumbent().Obj, want)
			}
		}
	}
}

// Mixed-integer test: integer + continuous variables.
func TestMixedIntegerProblem(t *testing.T) {
	// min -x - 2y - 0.5z, x,y int in [0,10], z cont in [0,1],
	// x + y <= 7, x + z <= 5.5  → x=5, y=2 (x+y=7), z=0.5 → -9.25.
	p := &Prob{Name: "mix"}
	x := p.AddVar("x", 0, 10, -1, Integer)
	y := p.AddVar("y", 0, 10, -2, Integer)
	z := p.AddVar("z", 0, 1, -0.5, Continuous)
	p.AddRow("r1", lp.LE, 7, []lp.Nonzero{{Col: x, Val: 1}, {Col: y, Val: 1}})
	p.AddRow("r2", lp.LE, 5.5, []lp.Nonzero{{Col: x, Val: 1}, {Col: z, Val: 1}})
	s := NewSolver(p, DefaultSettings(), nil)
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("status %v", st)
	}
	// Optimum: maximize x+2y+0.5z → y as big as possible: y=7? x+y<=7 →
	// x=0,y=7: obj -14 - 0.5z, z<=1 and x+z<=5.5 → z=1 → -14.5.
	if math.Abs(s.Incumbent().Obj-(-14.5)) > 1e-6 {
		t.Fatalf("obj = %v, want -14.5", s.Incumbent().Obj)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	p := &Prob{Name: "infeas"}
	x := p.AddVar("x", 0, 1, 1, Binary)
	p.AddRow("r", lp.GE, 2, []lp.Nonzero{{Col: x, Val: 1}})
	s := NewSolver(p, DefaultSettings(), nil)
	if st := s.Solve(); st != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", st)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 16
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = float64(1 + rng.Intn(100))
		weights[i] = float64(1 + rng.Intn(50))
	}
	set := DefaultSettings()
	set.NodeLimit = 3
	set.HeurFreq = 0
	s := NewSolver(knapsackProb(values, weights, 100), set, nil)
	st := s.Solve()
	if st != StatusNodeLimit && st != StatusOptimal {
		t.Fatalf("status = %v", st)
	}
	if s.Stats.Nodes > 3 {
		t.Fatalf("nodes = %d exceeds limit", s.Stats.Nodes)
	}
}

// A time limit too large for a time.Duration means no limit: the LP
// deadline must not wrap into the past and cut every LP off at its first
// iteration.
func TestHugeTimeLimitKeepsLPSolving(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 11}
	weights := []float64{5, 6, 3, 4, 1, 5, 7}
	want := bruteKnapsack(values, weights, 15)
	solve := func(limit float64) *Solver {
		set := DefaultSettings()
		set.TimeLimit = limit
		s := NewSolver(knapsackProb(values, weights, 15), set, nil)
		if st := s.Solve(); st != StatusOptimal {
			t.Fatalf("time limit %g: status %v", limit, st)
		}
		if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
			t.Fatalf("time limit %g: obj %v want %v", limit, -s.Incumbent().Obj, want)
		}
		return s
	}
	ref := solve(0)
	if ref.Stats.LPIterations == 0 {
		t.Fatal("reference solve ran no LP iterations")
	}
	for _, limit := range []float64{math.Inf(1), 1e10, 1e300} {
		s := solve(limit)
		if s.Stats.LPIterations != ref.Stats.LPIterations || s.Stats.Nodes != ref.Stats.Nodes {
			t.Fatalf("time limit %g: %d nodes, %d LP iterations; want %d, %d as with no limit",
				limit, s.Stats.Nodes, s.Stats.LPIterations, ref.Stats.Nodes, ref.Stats.LPIterations)
		}
	}
}

func TestPollInterrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = float64(1 + rng.Intn(100))
		weights[i] = float64(1 + rng.Intn(50))
	}
	s := NewSolver(knapsackProb(values, weights, 80), DefaultSettings(), nil)
	calls := 0
	s.Poll = func(sv *Solver) bool {
		calls++
		return calls < 3
	}
	if st := s.Solve(); st != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", st)
	}
}

// Subproblem extraction and re-solving: splitting the root problem into
// transferred subproblems and solving each must reproduce the optimum —
// the core invariant behind UG's work transfer.
func TestExtractAndResolveSubproblems(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(6)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(25))
			weights[i] = float64(1 + rng.Intn(12))
		}
		capacity := 3 * float64(n)
		want := bruteKnapsack(values, weights, capacity)

		// Run a few nodes, then extract all open subproblems.
		set := DefaultSettings()
		set.HeurFreq = 0 // make it harder: no heuristics
		set.Seed = int64(trial)
		s := NewSolver(knapsackProb(values, weights, capacity), set, nil)
		nodesRun := 0
		s.Poll = func(sv *Solver) bool {
			nodesRun++
			return nodesRun < 5
		}
		st := s.Solve()
		if st == StatusOptimal {
			if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
				t.Fatalf("trial %d: early optimal obj wrong", trial)
			}
			continue
		}
		subs := s.ExtractAllOpen()
		if len(subs) == 0 {
			// Interrupt landed after the tree emptied: the incumbent must
			// already be optimal.
			if math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
				t.Fatalf("trial %d: empty tree but suboptimal incumbent", trial)
			}
			continue
		}
		best := math.Inf(1)
		if inc := s.Incumbent(); inc != nil {
			best = inc.Obj
		}
		// Solve each subproblem independently (as ParaSolvers would);
		// round-trip through the gob wire format.
		for _, sub := range subs {
			b, err := EncodeSubprob(sub)
			if err != nil {
				t.Fatal(err)
			}
			sub2, err := DecodeSubprob(b)
			if err != nil {
				t.Fatal(err)
			}
			w := NewSolver(knapsackProb(values, weights, capacity), DefaultSettings(), nil)
			wst := w.SolveSubprob(sub2)
			if wst != StatusOptimal && wst != StatusInfeasible {
				t.Fatalf("trial %d: subproblem status %v", trial, wst)
			}
			if inc := w.Incumbent(); inc != nil && inc.Obj < best {
				best = inc.Obj
			}
		}
		if math.Abs(-best-want) > 1e-6 {
			t.Fatalf("trial %d: combined obj %v want %v", trial, -best, want)
		}
	}
}

func TestInjectSolutionPrunes(t *testing.T) {
	values := []float64{10, 10, 10, 10}
	weights := []float64{1, 1, 1, 1}
	p := knapsackProb(values, weights, 2)
	s := NewSolver(p, DefaultSettings(), nil)
	ok := s.InjectSolution(&Sol{X: []float64{1, 1, 0, 0}})
	if !ok {
		t.Fatal("valid injected solution rejected")
	}
	if s.Incumbent() == nil || math.Abs(s.Incumbent().Obj-(-20)) > 1e-9 {
		t.Fatalf("incumbent = %+v", s.Incumbent())
	}
	// Infeasible injection must be rejected.
	if s.InjectSolution(&Sol{X: []float64{1, 1, 1, 0}}) {
		t.Fatal("infeasible injected solution accepted")
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("status %v", st)
	}
}

func TestBestBoundAndGap(t *testing.T) {
	values := []float64{5, 4, 3}
	weights := []float64{2, 2, 2}
	p := knapsackProb(values, weights, 4)
	s := NewSolver(p, DefaultSettings(), nil)
	s.Solve()
	if g := s.Gap(); g > 1e-9 {
		t.Fatalf("gap after optimal solve = %v", g)
	}
	lb := s.BestBound()
	if math.Abs(lb-s.Incumbent().Obj) > 1e-9 {
		t.Fatalf("best bound %v != incumbent %v", lb, s.Incumbent().Obj)
	}
}

// Property: random MIPs solved by the framework match a brute-force
// enumeration over the integer grid.
func TestRandomBoundedIntegerPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4) // small enough for grid enumeration
		ub := 3
		p := &Prob{Name: "ip", IntegralObj: true}
		obj := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(11) - 5)
			p.AddVar("x", 0, float64(ub), obj[j], Integer)
		}
		m := 1 + rng.Intn(3)
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for i := 0; i < m; i++ {
			rows[i] = make([]float64, n)
			var coefs []lp.Nonzero
			for j := 0; j < n; j++ {
				rows[i][j] = float64(rng.Intn(7) - 3)
				coefs = append(coefs, lp.Nonzero{Col: j, Val: rows[i][j]})
			}
			rhs[i] = float64(rng.Intn(10))
			p.AddRow("r", lp.LE, rhs[i], coefs)
		}
		// Brute force over the grid.
		best := math.Inf(1)
		var rec func(j int, x []float64)
		rec = func(j int, x []float64) {
			if j == n {
				for i := 0; i < m; i++ {
					var ax float64
					for k := 0; k < n; k++ {
						ax += rows[i][k] * x[k]
					}
					if ax > rhs[i]+1e-9 {
						return
					}
				}
				var o float64
				for k := 0; k < n; k++ {
					o += obj[k] * x[k]
				}
				if o < best {
					best = o
				}
				return
			}
			for v := 0; v <= ub; v++ {
				x[j] = float64(v)
				rec(j+1, x)
			}
		}
		rec(0, make([]float64, n))

		set := DefaultSettings()
		set.Seed = int64(trial)
		s := NewSolver(p, set, nil)
		st := s.Solve()
		if math.IsInf(best, 1) {
			if st != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, st)
			}
			continue
		}
		if st != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, st)
		}
		if math.Abs(s.Incumbent().Obj-best) > 1e-6 {
			t.Fatalf("trial %d: obj %v want %v", trial, s.Incumbent().Obj, best)
		}
	}
}

func TestSettingsEmphasisApply(t *testing.T) {
	s := DefaultSettings()
	s.Emphasis = EmphEasyCIP
	s.apply()
	if s.SepaRounds > 3 || s.PropRounds != 1 {
		t.Fatalf("easycip not applied: %+v", s)
	}
	a := DefaultSettings()
	a.Emphasis = EmphAggressive
	a.apply()
	if a.SepaRounds != 24 {
		t.Fatalf("aggressive sepa rounds = %d", a.SepaRounds)
	}
}

func TestEncodeSolRoundtrip(t *testing.T) {
	sol := &Sol{Obj: -3.5, X: []float64{1, 0, 2.5}}
	b, err := EncodeSol(sol)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSol(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Obj != sol.Obj || len(got.X) != 3 || got.X[2] != 2.5 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

func TestSubprobEncodeBoundsAndDecisions(t *testing.T) {
	p := knapsackProb([]float64{3, 2}, []float64{1, 1}, 1)
	s := NewSolver(p, DefaultSettings(), nil)
	root := &Node{ID: 0, Bound: -5}
	child := &Node{ID: 1, Parent: root, Depth: 1,
		Bound:     -4,
		BoundChgs: []BoundChg{{Var: 0, Lo: 1, Up: 1}},
		Decisions: []Decision{{Kind: "test", V: 7, Flag: true}},
	}
	sub := s.encodeNode(child)
	if len(sub.Bounds) != 1 || sub.Bounds[0].Var != 0 || sub.Bounds[0].Lo != 1 {
		t.Fatalf("bounds = %+v", sub.Bounds)
	}
	if len(sub.Decisions) != 1 || sub.Decisions[0].Kind != "test" {
		t.Fatalf("decisions = %+v", sub.Decisions)
	}
	if sub.Bound != -4 || sub.Depth != 1 {
		t.Fatalf("meta = %+v", sub)
	}
}

// Property: subproblem gob encoding round-trips arbitrary bound changes
// and decisions exactly.
func TestSubprobGobRoundTripQuick(t *testing.T) {
	f := func(vars []uint8, los, ups []float64, kinds []uint8) bool {
		sub := &Subprob{Bound: -3.25, Depth: len(vars)}
		for i := range vars {
			lo, up := 0.0, 1.0
			if i < len(los) {
				lo = los[i]
			}
			if i < len(ups) {
				up = ups[i]
			}
			sub.Bounds = append(sub.Bounds, BoundChg{Var: int(vars[i]), Lo: lo, Up: up})
		}
		for i := range kinds {
			sub.Decisions = append(sub.Decisions, Decision{
				Kind: "k", V: int(kinds[i]), Flag: kinds[i]%2 == 0, Val: float64(kinds[i]) / 3,
			})
		}
		b, err := EncodeSubprob(sub)
		if err != nil {
			return false
		}
		got, err := DecodeSubprob(b)
		if err != nil {
			return false
		}
		if got.Depth != sub.Depth || got.Bound != sub.Bound ||
			len(got.Bounds) != len(sub.Bounds) || len(got.Decisions) != len(sub.Decisions) {
			return false
		}
		for i := range sub.Bounds {
			if got.Bounds[i] != sub.Bounds[i] {
				return false
			}
		}
		for i := range sub.Decisions {
			if got.Decisions[i] != sub.Decisions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// lpReader is a heuristic that, like the Steiner and MISDP ones, reads
// the LP point whenever the context offers one. It counts the points it
// is offered, the offered points whose LP did not finish Optimal, and
// the calls that found no point.
type lpReader struct{ seen, notOptimal, withheld int }

func (*lpReader) Name() string { return "lpreader" }

func (h *lpReader) Search(ctx *Ctx) Result {
	if ctx.LPSol == nil {
		h.withheld++
		return DidNothing
	}
	_ = ctx.LPSol.X[0]
	h.seen++
	if ctx.LPSol.Status != lp.Optimal {
		h.notOptimal++
	}
	return DidNothing
}

// An LP that stops at its iteration limit has no point to offer: the
// context hands plugins only points of LPs that finished Optimal. With
// a one-iteration budget most LPs stop at the limit; one that is
// optimal after a single pivot may still offer its point.
func TestLPIterLimitOffersNoPoint(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2, 9, 4, 6, 11, 3}
	weights := []float64{5, 6, 3, 4, 1, 5, 2, 3, 6, 2}
	set := DefaultSettings()
	set.NodeLimit = 20
	h := &lpReader{}
	s := NewSolver(knapsackProb(values, weights, 17), set, &Plugins{Heuristics: []Heuristic{h}})
	s.lps.MaxIters = 1
	s.Solve() // must not panic in the heuristic
	if h.notOptimal != 0 {
		t.Fatalf("heuristic was offered %d LP points (of %d) from LPs that did not finish Optimal", h.notOptimal, h.seen)
	}
	if h.withheld == 0 {
		t.Fatalf("no heuristic call found its LP stopped at the iteration limit (%d points offered)", h.seen)
	}
}
