package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplePath(t *testing.T) {
	nw := New(3)
	nw.AddArc(0, 1, 5)
	nw.AddArc(1, 2, 3)
	if f := nw.MaxFlow(0, 2); f != 3 {
		t.Fatalf("flow = %v, want 3", f)
	}
}

func TestParallelPaths(t *testing.T) {
	nw := New(4)
	nw.AddArc(0, 1, 2)
	nw.AddArc(1, 3, 2)
	nw.AddArc(0, 2, 3)
	nw.AddArc(2, 3, 1)
	if f := nw.MaxFlow(0, 3); f != 3 {
		t.Fatalf("flow = %v, want 3", f)
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS figure: max flow 23.
	nw := New(6)
	nw.AddArc(0, 1, 16)
	nw.AddArc(0, 2, 13)
	nw.AddArc(1, 2, 10)
	nw.AddArc(2, 1, 4)
	nw.AddArc(1, 3, 12)
	nw.AddArc(3, 2, 9)
	nw.AddArc(2, 4, 14)
	nw.AddArc(4, 3, 7)
	nw.AddArc(3, 5, 20)
	nw.AddArc(4, 5, 4)
	if f := nw.MaxFlow(0, 5); f != 23 {
		t.Fatalf("flow = %v, want 23", f)
	}
}

func TestDisconnected(t *testing.T) {
	nw := New(4)
	nw.AddArc(0, 1, 5)
	if f := nw.MaxFlow(0, 3); f != 0 {
		t.Fatalf("flow = %v, want 0", f)
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	nw := New(4)
	a := nw.AddArc(0, 1, 2)
	b := nw.AddArc(0, 2, 2)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 4)
	f := nw.MaxFlow(0, 3)
	if f != 3 {
		t.Fatalf("flow = %v, want 3", f)
	}
	cut := nw.MinCutSource(0)
	if !cut[0] || cut[3] {
		t.Fatal("cut must separate s from t")
	}
	_ = a
	_ = b
}

// buildRandom constructs a random network; returns it and a parallel copy
// of the arc definitions for brute-force checks.
type arcDef struct {
	u, v int
	c    float64
}

func buildRandom(rng *rand.Rand, n int, arcs []arcDef) *Network {
	nw := New(n)
	for _, a := range arcs {
		nw.AddArc(a.u, a.v, a.c)
	}
	return nw
}

// Property: max-flow value equals the capacity of the min cut found, and
// flow conservation holds at internal vertices.
func TestMaxFlowMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		var arcs []arcDef
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			arcs = append(arcs, arcDef{u, v, float64(1 + rng.Intn(9))})
		}
		nw := buildRandom(rng, n, arcs)
		s, tt := 0, n-1
		flow := nw.MaxFlow(s, tt)
		cut := nw.MinCutSource(s)
		if cut[tt] {
			return false
		}
		// Min-cut capacity: arcs from cut side to non-cut side.
		var cutCap float64
		for _, a := range arcs {
			if cut[a.u] && !cut[a.v] {
				cutCap += a.c
			}
		}
		if math.Abs(cutCap-flow) > 1e-9 {
			return false
		}
		// Conservation: net flow at internal vertices is zero.
		net := make([]float64, n)
		nw2 := buildRandom(rng, n, arcs)
		ids := make([]int, len(arcs))
		for i := range arcs {
			ids[i] = 2 * i
		}
		nw2.MaxFlow(s, tt)
		for i, a := range arcs {
			fl := nw2.Flow(ids[i])
			if fl < -1e-9 || fl > a.c+1e-9 {
				return false
			}
			net[a.u] -= fl
			net[a.v] += fl
		}
		for v := 0; v < n; v++ {
			if v == s || v == tt {
				continue
			}
			if math.Abs(net[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalCapacities(t *testing.T) {
	nw := New(3)
	nw.AddArc(0, 1, 0.5)
	nw.AddArc(1, 2, 0.25)
	if f := nw.MaxFlow(0, 2); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("flow = %v, want 0.25", f)
	}
}

// randomArcs returns up to 4n random arcs with fractional capacities,
// the shape of an LP support graph.
func randomArcs(rng *rand.Rand, n int) []arcDef {
	var arcs []arcDef
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			arcs = append(arcs, arcDef{u, v, rng.Float64()})
		}
	}
	return arcs
}

// One network reset between sinks routes exactly the flows a freshly
// built network routes: same value, same flow on every arc, same cut.
func TestResetFlowMatchesFreshNetwork(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		arcs := randomArcs(rng, n)
		reused := buildRandom(rng, n, arcs)
		for sink := 1; sink < n; sink++ {
			reused.ResetFlow()
			fresh := buildRandom(rng, n, arcs)
			got, want := reused.MaxFlow(0, sink), fresh.MaxFlow(0, sink)
			if got != want {
				t.Fatalf("seed %d sink %d: flow %v after ResetFlow, %v fresh", seed, sink, got, want)
			}
			for k := range arcs {
				if reused.Flow(2*k) != fresh.Flow(2*k) {
					t.Fatalf("seed %d sink %d arc %d: flow %v after ResetFlow, %v fresh",
						seed, sink, k, reused.Flow(2*k), fresh.Flow(2*k))
				}
			}
			a, b := reused.MinCutSource(0), fresh.MinCutSource(0)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("seed %d sink %d: cuts differ at vertex %d", seed, sink, v)
				}
			}
		}
	}
}

// Once its buffers exist, a network computes a max-flow and resets it
// without allocating.
func TestResetFlowMaxFlowDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30
	nw := buildRandom(rng, n, randomArcs(rng, n))
	nw.MaxFlow(0, n-1)
	if allocs := testing.AllocsPerRun(50, func() {
		nw.ResetFlow()
		nw.MaxFlow(0, n-1)
	}); allocs != 0 {
		t.Fatalf("%v allocs per ResetFlow+MaxFlow, want 0", allocs)
	}
}

// BenchmarkMaxFlowReset measures one separation round's kernel: a
// max-flow to every sink over one network, reset between sinks.
// BenchmarkMaxFlowFresh is the same round with a network built per
// sink, as the Steiner separator did before ResetFlow.
func BenchmarkMaxFlowReset(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	nw := buildRandom(rng, n, randomArcs(rng, n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sink := 1; sink < n; sink++ {
			nw.ResetFlow()
			nw.MaxFlow(0, sink)
		}
	}
}

func BenchmarkMaxFlowFresh(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	arcs := randomArcs(rng, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sink := 1; sink < n; sink++ {
			buildRandom(rng, n, arcs).MaxFlow(0, sink)
		}
	}
}
