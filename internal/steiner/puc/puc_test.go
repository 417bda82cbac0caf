package puc

import (
	"testing"

	"repro/internal/scip"
	"repro/internal/steiner"
)

// Iterate pin: the node count and LP iterations of one sequential solve,
// recorded when a node's LP began to start from its parent's snapshot
// after a jump in the search. Kernel changes that only reorder exact
// zeros leave every pivot, and so these counts, alone; one that moves a
// pivot fails here.
func TestLPIteratePin(t *testing.T) {
	s := sequential(t, HypercubeSpread(5, 16, 100, 170, 4), 0)
	if st := s.Solve(); st != scip.StatusOptimal {
		t.Fatalf("status %v", st)
	}
	if s.Stats.Nodes != 29 || s.Stats.LPIterations != 1338 {
		t.Fatalf("hc 5,16,100,170,4: %d nodes / %d LP iterations, pinned 29 / 1338", s.Stats.Nodes, s.Stats.LPIterations)
	}
}

func TestHypercubeStructure(t *testing.T) {
	for d := 2; d <= 6; d++ {
		s := Hypercube(d, false, 1)
		n := 1 << d
		if s.G.NumVertices() != n {
			t.Fatalf("d=%d: %d vertices", d, s.G.NumVertices())
		}
		if s.G.AliveEdges() != d*n/2 {
			t.Fatalf("d=%d: %d edges, want %d", d, s.G.AliveEdges(), d*n/2)
		}
		if s.NumTerminals() != n/2 {
			t.Fatalf("d=%d: %d terminals, want %d", d, s.NumTerminals(), n/2)
		}
		// Every vertex has degree d.
		for v := 0; v < n; v++ {
			if s.G.Degree(v) != d {
				t.Fatalf("d=%d: vertex %d degree %d", d, v, s.G.Degree(v))
			}
		}
		// Unit costs.
		for e := 0; e < s.G.NumEdges(); e++ {
			if s.G.Cost(e) != 1 {
				t.Fatalf("unit variant has cost %v", s.G.Cost(e))
			}
		}
	}
}

func TestHypercubePerturbedCosts(t *testing.T) {
	s := Hypercube(4, true, 7)
	for e := 0; e < s.G.NumEdges(); e++ {
		if c := s.G.Cost(e); c < 100 || c > 110 {
			t.Fatalf("perturbed cost %v outside [100,110]", c)
		}
	}
}

func TestHypercubeTerminalsEvenParity(t *testing.T) {
	s := Hypercube(5, false, 1)
	for v := 0; v < s.G.NumVertices(); v++ {
		if s.Terminal[v] && parity(v) != 0 {
			t.Fatalf("terminal %d has odd parity", v)
		}
	}
}

func TestHypercubeT(t *testing.T) {
	s := HypercubeT(5, 7, true, 3)
	if s.NumTerminals() != 7 {
		t.Fatalf("terminals = %d", s.NumTerminals())
	}
	for v := 0; v < s.G.NumVertices(); v++ {
		if s.Terminal[v] && parity(v) != 0 {
			t.Fatalf("terminal %d has odd parity", v)
		}
	}
}

func TestHypercubeSpread(t *testing.T) {
	s := HypercubeSpread(4, 8, 100, 170, 5)
	if s.NumTerminals() != 8 {
		t.Fatalf("terminals = %d", s.NumTerminals())
	}
	for e := 0; e < s.G.NumEdges(); e++ {
		if c := s.G.Cost(e); c < 100 || c > 170 {
			t.Fatalf("spread cost %v outside [100,170]", c)
		}
	}
}

func TestCodeCoverStructure(t *testing.T) {
	d, a := 3, 4
	s := CodeCover(d, a, 8, false, 1)
	n := 64
	if s.G.NumVertices() != n {
		t.Fatalf("%d vertices", s.G.NumVertices())
	}
	// Hamming graph H(d,a): every vertex has degree d(a−1).
	want := d * (a - 1)
	for v := 0; v < n; v++ {
		if s.G.Degree(v) != want {
			t.Fatalf("vertex %d degree %d, want %d", v, s.G.Degree(v), want)
		}
	}
	if s.NumTerminals() != 8 {
		t.Fatalf("%d terminals", s.NumTerminals())
	}
}

func TestBipartiteStructure(t *testing.T) {
	s := Bipartite(10, 30, 3, false, 2)
	if s.G.NumVertices() != 40 {
		t.Fatalf("%d vertices", s.G.NumVertices())
	}
	if s.NumTerminals() != 10 {
		t.Fatalf("%d terminals", s.NumTerminals())
	}
	// Terminals only link to the Steiner side.
	for tv := 0; tv < 10; tv++ {
		s.G.Adj(tv, func(e, w int) bool {
			if w < 10 {
				t.Fatalf("terminal %d adjacent to terminal %d", tv, w)
			}
			return true
		})
	}
	// Connected: the generator's backbone spans the Steiner side.
	comp := s.G.ConnectedComponent(10)
	for v := 10; v < 40; v++ {
		if !comp[v] {
			t.Fatalf("steiner vertex %d disconnected", v)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Hypercube(5, true, 9)
	b := Hypercube(5, true, 9)
	for e := 0; e < a.G.NumEdges(); e++ {
		if a.G.Cost(e) != b.G.Cost(e) {
			t.Fatal("hypercube costs differ across calls")
		}
	}
	c := CodeCover(3, 3, 9, true, 5)
	d := CodeCover(3, 3, 9, true, 5)
	if c.NumTerminals() != d.NumTerminals() {
		t.Fatal("code-cover terminals differ")
	}
	for v := range c.Terminal {
		if c.Terminal[v] != d.Terminal[v] {
			t.Fatal("code-cover terminal sets differ")
		}
	}
}

func TestNamedInstances(t *testing.T) {
	names := []string{"cc3-4p", "cc3-5u", "cc5-3p", "hc6p", "hc6u", "hc7p", "hc7u", "hc10p", "hc9p", "bip52u"}
	for _, name := range names {
		s := Named(name)
		if s == nil {
			t.Fatalf("Named(%q) = nil", name)
		}
		if s.NumTerminals() < 2 {
			t.Fatalf("%s: %d terminals", name, s.NumTerminals())
		}
		// All instances must be connected from a terminal.
		comp := s.G.ConnectedComponent(s.Root())
		for _, tv := range s.Terminals() {
			if !comp[tv] {
				t.Fatalf("%s: terminal %d disconnected", name, tv)
			}
		}
	}
	if Named("nonsense") != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestNamedInstancesSolvableDW(t *testing.T) {
	// Spot-check small named instances against Dreyfus–Wagner.
	s := Named("cc3-4p")
	var clone *steiner.SPG = s.Clone()
	if got := clone.SolveDW(); got <= 0 {
		t.Fatalf("cc3-4p DW = %v", got)
	}
}
