package steiner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/scip"
)

// brutePCSTP enumerates vertex subsets: cost(S) = MST(G[S]) + Σ_{v∉S} p.
func brutePCSTP(g *graph.Graph, prizes []float64) float64 {
	n := g.NumVertices()
	var totalPrize float64
	for _, p := range prizes {
		totalPrize += p
	}
	best := totalPrize // the empty solution pays every prize
	for mask := 1; mask < 1<<n; mask++ {
		sel := make([]bool, n)
		for v := 0; v < n; v++ {
			sel[v] = mask&(1<<v) != 0
		}
		edges, mst, ok := g.MSTPrim(sel)
		_ = edges
		if !ok {
			continue // disconnected subset
		}
		cost := mst
		for v := 0; v < n; v++ {
			if !sel[v] {
				cost += prizes[v]
			}
		}
		if cost < best {
			best = cost
		}
	}
	return best
}

// bruteMWCS enumerates connected vertex subsets for the max-weight
// connected subgraph problem (the empty subgraph has value 0).
func bruteMWCS(g *graph.Graph, w []float64) float64 {
	n := g.NumVertices()
	best := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		sel := make([]bool, n)
		var sum float64
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				sel[v] = true
				sum += w[v]
			}
		}
		if sum <= best {
			continue
		}
		if _, _, ok := g.MSTPrim(sel); ok {
			best = sum
		}
	}
	return best
}

func randomVariantGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(8)))
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(8)))
		}
	}
	return g
}

func sapSettings() scip.Settings {
	s := scip.DefaultSettings()
	s.NodeSel = scip.HybridPlunge
	s.MaxCutRows = 300
	return s
}

func TestFromSPGMatchesDW(t *testing.T) {
	for seed := int64(700); seed < 712; seed++ {
		spg := randomSPG(seed, 9, 9, 3)
		want := spg.SolveDW()
		sap := FromSPG(spg)
		got, st, _ := SolveSAP(sap, sapSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: sap %v dw %v", seed, got, want)
		}
	}
}

func TestPCSTPAgainstBruteForce(t *testing.T) {
	for seed := int64(800); seed < 815; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := randomVariantGraph(rng, n)
		prizes := make([]float64, n)
		for v := range prizes {
			if rng.Float64() < 0.6 {
				prizes[v] = float64(rng.Intn(10))
			}
		}
		want := brutePCSTP(g, prizes)
		sap := TransformPCSTP(g, prizes)
		got, st, solver := SolveSAP(sap, sapSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		if solver.Stats.DeadEnds != 0 {
			t.Fatalf("seed %d: dead ends", seed)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: pcstp %v want %v", seed, got, want)
		}
	}
}

func TestPCSTPAllPrizesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomVariantGraph(rng, 5)
	prizes := make([]float64, 5)
	sap := TransformPCSTP(g, prizes)
	// No prize vertices → only the artificial root terminal → empty
	// solution with objective 0. No anchor arcs exist either, so the
	// side-constraint row is empty; the transformation handles this by
	// producing a model whose optimum is 0 or reporting infeasible.
	got, st, _ := SolveSAP(sap, sapSettings())
	if st == scip.StatusOptimal && math.Abs(got) > 1e-9 {
		t.Fatalf("got %v, want 0", got)
	}
}

func TestRPCSTPAgainstBruteForce(t *testing.T) {
	for seed := int64(900); seed < 912; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := randomVariantGraph(rng, n)
		prizes := make([]float64, n)
		for v := range prizes {
			if rng.Float64() < 0.6 {
				prizes[v] = float64(rng.Intn(10))
			}
		}
		root := rng.Intn(n)
		// Brute force restricted to subsets containing root.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<root) == 0 {
				continue
			}
			sel := make([]bool, n)
			for v := 0; v < n; v++ {
				sel[v] = mask&(1<<v) != 0
			}
			_, mst, ok := g.MSTPrim(sel)
			if !ok {
				continue
			}
			cost := mst
			for v := 0; v < n; v++ {
				if !sel[v] {
					cost += prizes[v]
				}
			}
			if cost < best {
				best = cost
			}
		}
		sap := TransformRPCSTP(g, prizes, root)
		got, st, _ := SolveSAP(sap, sapSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("seed %d: rpcstp %v want %v", seed, got, best)
		}
	}
}

func TestMWCSAgainstBruteForce(t *testing.T) {
	for seed := int64(1000); seed < 1015; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := randomVariantGraph(rng, n)
		w := make([]float64, n)
		for v := range w {
			w[v] = float64(rng.Intn(13) - 6)
		}
		anyPos := false
		for _, x := range w {
			if x > 0 {
				anyPos = true
			}
		}
		if !anyPos {
			continue
		}
		want := bruteMWCS(g, w)
		sap := TransformMWCS(g, w)
		got, st, _ := SolveSAP(sap, sapSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, st)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("seed %d: mwcs %v want %v", seed, got, want)
		}
	}
}

func TestSAPValidation(t *testing.T) {
	s := &SAP{N: 2, Root: 5, Terminal: make([]bool, 2)}
	if err := s.validate(); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	s2 := &SAP{N: 2, Root: 0, Terminal: make([]bool, 2)}
	s2.AddArc(0, 1, -1)
	if err := s2.validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestSAPValueMapping(t *testing.T) {
	s := &SAP{ObjOffset: 10, Negate: true}
	if s.Value(3) != 7 {
		t.Fatalf("negated value = %v", s.Value(3))
	}
	s2 := &SAP{ObjOffset: 5}
	if s2.Value(3) != 8 {
		t.Fatalf("offset value = %v", s2.Value(3))
	}
}

// variantTrio builds one PCSTP, one RPCSTP (rooted at vertex 0) and one
// MWCS instance over the same 14-vertex random graph; prizes and weights
// are drawn from the graph's rng, one vertex at a time.
func variantTrio(seed int64) [3]*SAP {
	rng := rand.New(rand.NewSource(seed))
	const n = 14
	g := randomVariantGraph(rng, n)
	prizes := make([]float64, n)
	w := make([]float64, n)
	for v := range prizes {
		if rng.Float64() < 0.6 {
			prizes[v] = float64(rng.Intn(10))
		}
		w[v] = float64(rng.Intn(13) - 6)
	}
	return [3]*SAP{TransformPCSTP(g, prizes), TransformRPCSTP(g, prizes, 0), TransformMWCS(g, w)}
}

// searchCounts is the nodes/LP iterations/cuts triple of one solve.
func searchCounts(s *SAP) [3]int64 {
	_, _, solver := SolveSAP(s, sapSettings())
	return [3]int64{solver.Stats.Nodes, solver.Stats.LPIterations, solver.Stats.CutsAdded}
}

// Search pin: the variant pipeline's nodes, LP iterations and cuts on
// one instance per transformation. A change to the shared cut engine
// that moves one separated row, or one pivot, fails here.
func TestSAPSearchPin(t *testing.T) {
	want := [3][3]int64{{7, 313, 89}, {4, 215, 55}, {1, 60, 10}}
	for i, s := range variantTrio(8) {
		if got := searchCounts(s); got != want[i] {
			t.Errorf("%s: nodes/LP iterations/cuts %v, pinned %v", s.Name, got, want[i])
		}
	}
}

// The variant pipeline replays: the heuristic connects equally distant
// terminals in a fixed order, so repeated solves of one instance take the
// same search. Seed 6's MWCS instance has such a tie.
func TestSAPSolveReplays(t *testing.T) {
	s := variantTrio(6)[2]
	first := searchCounts(s)
	for run := 1; run < 8; run++ {
		if got := searchCounts(s); got != first {
			t.Fatalf("run %d: nodes/LP iterations/cuts %v, run 0 %v", run, got, first)
		}
	}
}
