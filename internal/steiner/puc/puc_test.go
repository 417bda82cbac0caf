package puc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
)

// Iterate pin: the node count, LP iterations and cuts of one sequential
// solve, recorded when a node's LP began to start from its parent's
// snapshot after a jump in the search. Kernel changes that only reorder
// exact zeros leave every pivot, and so these counts, alone; one that
// moves a pivot, or one separated or enforced cut of the directed-cut
// core, fails here.
func TestLPIteratePin(t *testing.T) {
	s := sequential(t, HypercubeSpread(5, 16, 100, 170, 4), 0)
	if st := s.Solve(); st != scip.StatusOptimal {
		t.Fatalf("status %v", st)
	}
	if s.Stats.Nodes != 29 || s.Stats.LPIterations != 1338 || s.Stats.CutsAdded != 199 {
		t.Fatalf("hc 5,16,100,170,4: %d nodes / %d LP iterations / %d cuts, pinned 29 / 1338 / 199",
			s.Stats.Nodes, s.Stats.LPIterations, s.Stats.CutsAdded)
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
	for _, name := range Names() {
		s := Named(name)
		if s == nil {
			t.Fatalf("Named(%q) = nil", name)
		}
		if s.Name != name {
			t.Fatalf("Named(%q).Name = %q", name, s.Name)
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

// graphHash digests what makes an instance: its vertex count, its edge
// list with costs and its terminal set.
func graphHash(s *steiner.SPG) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d\n", s.G.NumVertices())
	for _, e := range s.G.Edges {
		fmt.Fprintf(h, "%d %d %v\n", e.U, e.V, e.Cost)
	}
	fmt.Fprintf(h, "t=%v\n", s.Terminals())
	return hex.EncodeToString(h.Sum(nil))
}

// One name, one graph, and no graph under two names.
func TestNamedInstancesAreDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Names() {
		h := graphHash(Named(name))
		if other, ok := seen[h]; ok {
			t.Errorf("%s builds the same graph as %s", name, other)
		}
		seen[h] = name
	}
}

// A SteinLib name goes only on a graph with SteinLib's vertex, edge and
// terminal counts for it; every other name is the generator call that
// builds its graph.
func TestNamedInstancesMatchTheirNames(t *testing.T) {
	steinLib := map[string][3]int{
		"cc3-4p": {64, 288, 8},
		"cc3-5u": {125, 750, 13},
		"hc6p":   {64, 192, 32},
		"hc6u":   {64, 192, 32},
		"hc7p":   {128, 448, 64},
		"hc7u":   {128, 448, 64},
	}
	for _, name := range Names() {
		s := Named(name)
		if want, ok := steinLib[name]; ok {
			if got := [3]int{s.G.NumVertices(), s.G.NumEdges(), s.NumTerminals()}; got != want {
				t.Errorf("%s: %v vertices/edges/terminals, SteinLib has %v", name, got, want)
			}
			continue
		}
		call := generatorCall(t, name)
		if call == nil {
			t.Errorf("%s: neither a SteinLib name nor a generator call", name)
		} else if graphHash(call) != graphHash(s) {
			t.Errorf("%s: the graph differs from its generator call's", name)
		}
	}
}

// generatorCall builds the graph a generator-call name spells, or nil.
func generatorCall(t *testing.T, name string) *steiner.SPG {
	parts := strings.Split(name, "-")
	a := make([]int, len(parts)-1)
	for i, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil
		}
		a[i] = v
	}
	s := int64(a[len(a)-1])
	switch {
	case parts[0] == "hypercube" && len(a) == 3:
		return Hypercube(a[0], a[1] != 0, s)
	case parts[0] == "hypercubet" && len(a) == 4:
		return HypercubeT(a[0], a[1], a[2] != 0, s)
	case parts[0] == "hypercubespread" && len(a) == 5:
		return HypercubeSpread(a[0], a[1], a[2], a[3], s)
	case parts[0] == "codecover" && len(a) == 5:
		return CodeCover(a[0], a[1], a[2], a[3] != 0, s)
	case parts[0] == "bipartite" && len(a) == 5:
		return Bipartite(a[0], a[1], a[2], a[3] != 0, s)
	}
	return nil
}

// Every registered optimum on up to 16 terminals is Dreyfus–Wagner's.
func TestNamedInstancesSolvableDW(t *testing.T) {
	for _, r := range registry {
		if Named(r.name).NumTerminals() > 16 {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			if got := Named(r.name).SolveDW(); math.Abs(got-r.opt) > 1e-6 {
				t.Fatalf("DW optimum %v, registered %v", got, r.opt)
			}
		})
	}
}

// The dual bound at a node limit is a bound: finite, no lower than the
// root's and no higher than the optimum. On hc5u the sequential solve
// stays open (18.6 against 20 after 300 nodes), so the limit bites.
// The search is pinned too: 300 nodes deep, branching-added terminals
// give local cuts, so a cut made global, or local, by mistake moves the
// LP iterations and cuts.
func TestNodeLimitBoundBracketsTheOptimum(t *testing.T) {
	const name = "hypercube-5-0-1"
	set := steiner.DefaultSettings()
	set.NodeLimit = 300
	s, st, off := core.SolveSequential(steiner.NewApp(Named(name)), set)
	if st != scip.StatusNodeLimit {
		t.Fatalf("%s: status %v, want the node limit", name, st)
	}
	best, root := s.BestBound()+off, s.Stats.RootBound+off
	if math.IsInf(best, 0) || best < root-1e-6 || best > 20+1e-6 {
		t.Fatalf("%s: best bound %v, root bound %v, optimum 20", name, best, root)
	}
	if s.Stats.Nodes != 300 || s.Stats.LPIterations != 9270 || s.Stats.CutsAdded != 302 {
		t.Fatalf("%s: %d nodes / %d LP iterations / %d cuts, pinned 300 / 9270 / 302",
			name, s.Stats.Nodes, s.Stats.LPIterations, s.Stats.CutsAdded)
	}
}
