// Package puc generates Steiner tree instances from the same structured
// families as the PUC benchmark set (SteinLib) that the paper attacks:
// hypercubes (hc*), code-coverage/Hamming graphs (cc*) and bipartite
// instances (bip*), each in a unit-cost (u) and a perturbed-cost (p)
// variant. PUC was constructed specifically to defy reduction
// techniques, and these families retain that property at reduced
// dimension: presolving removes almost nothing and massive
// branch-and-bound search is required — the regime the paper's
// parallelization study targets.
//
// Named builds the registered instances. Those built at a PUC original's
// size keep its SteinLib name (cc3-4p, hc6u, hc7u, ...); the smaller
// instances of the same families that stand in for the originals a
// single machine cannot attack (bip52u has 2200 vertices, hc10p 1024)
// are named by their generator calls. See DESIGN.md for the
// substitution rationale.
package puc

import (
	"math/rand"

	"repro/internal/steiner"
)

// Hypercube builds the hc-family instance of dimension d: vertices are
// the 2^d binary words, edges join words at Hamming distance one, and
// the terminals are the words of even parity (half the vertices), which
// is what makes the instances reduction-resistant. Unit costs when
// perturbed is false; otherwise integer costs in [100,110] seeded by
// seed, mirroring the p-variants' small cost spread.
func Hypercube(d int, perturbed bool, seed int64) *steiner.SPG {
	n := 1 << d
	s := steiner.NewSPG(n)
	s.Name = hcName(d, perturbed)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				c := 1.0
				if perturbed {
					c = float64(100 + rng.Intn(11))
				}
				s.G.AddEdge(v, w, c)
			}
		}
		if parity(v) == 0 {
			s.Terminal[v] = true
		}
	}
	return s
}

// HypercubeT is Hypercube with an explicit terminal count: nTerm
// vertices of even parity are chosen pseudo-randomly. Lower terminal
// counts interpolate the difficulty between hypercube dimensions.
func HypercubeT(d, nTerm int, perturbed bool, seed int64) *steiner.SPG {
	s := Hypercube(d, perturbed, seed)
	s.Name = hcName(d, perturbed) + "t" + itoa(nTerm)
	var evens []int
	for v := 0; v < s.G.NumVertices(); v++ {
		s.Terminal[v] = false
		if parity(v) == 0 {
			evens = append(evens, v)
		}
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	perm := rng.Perm(len(evens))
	if nTerm > len(evens) {
		nTerm = len(evens)
	}
	for i := 0; i < nTerm; i++ {
		s.Terminal[evens[perm[i]]] = true
	}
	return s
}

// HypercubeSpread is HypercubeT with integer costs drawn uniformly from
// [lo, hi]. The cost spread is the difficulty dial of the hc family:
// unit costs (the u-variants) sit deep in the intractable regime, wide
// spreads collapse to the root, and ratios hi/lo ≈ 1.6–1.7 produce the
// moderate search trees the scaling experiments need.
func HypercubeSpread(d, nTerm, lo, hi int, seed int64) *steiner.SPG {
	s := HypercubeT(d, nTerm, true, seed)
	s.Name = hcName(d, true) + "s" + itoa(hi)
	rng := rand.New(rand.NewSource(seed * 31))
	for e := 0; e < s.G.NumEdges(); e++ {
		s.G.SetCost(e, float64(lo+rng.Intn(hi-lo+1)))
	}
	return s
}

func parity(v int) int {
	p := 0
	for v > 0 {
		p ^= v & 1
		v >>= 1
	}
	return p
}

func hcName(d int, perturbed bool) string {
	suffix := "u"
	if perturbed {
		suffix = "p"
	}
	return "hc" + itoa(d) + suffix
}

// CodeCover builds the cc-family instance: the Hamming graph H(d,a)
// whose vertices are the a^d words over an alphabet of size a, with
// edges between words differing in exactly one position. nTerm terminals
// are chosen pseudo-randomly (seeded), emulating the covering-code
// structure of the originals.
func CodeCover(d, a, nTerm int, perturbed bool, seed int64) *steiner.SPG {
	n := 1
	for i := 0; i < d; i++ {
		n *= a
	}
	s := steiner.NewSPG(n)
	s.Name = "cc" + itoa(d) + "-" + itoa(a) + variant(perturbed)
	rng := rand.New(rand.NewSource(seed))
	// Edges: words differing in one coordinate.
	pow := make([]int, d+1)
	pow[0] = 1
	for i := 1; i <= d; i++ {
		pow[i] = pow[i-1] * a
	}
	for v := 0; v < n; v++ {
		for pos := 0; pos < d; pos++ {
			digit := (v / pow[pos]) % a
			for nd := digit + 1; nd < a; nd++ {
				w := v + (nd-digit)*pow[pos]
				c := 1.0
				if perturbed {
					c = float64(100 + rng.Intn(11))
				}
				s.G.AddEdge(v, w, c)
			}
		}
	}
	if nTerm < 2 {
		nTerm = 2
	}
	perm := rng.Perm(n)
	for i := 0; i < nTerm && i < n; i++ {
		s.Terminal[perm[i]] = true
	}
	return s
}

// Bipartite builds the bip-family instance: nTerm terminals on one side,
// nSteiner potential Steiner vertices on the other; each terminal links
// to deg random Steiner vertices and the Steiner side carries a sparse
// random backbone. The covering structure (terminals only reachable
// through Steiner vertices) is what makes bip instances hard.
func Bipartite(nTerm, nSteiner, deg int, perturbed bool, seed int64) *steiner.SPG {
	n := nTerm + nSteiner
	s := steiner.NewSPG(n)
	s.Name = "bip" + itoa(nTerm) + variant(perturbed)
	rng := rand.New(rand.NewSource(seed))
	cost := func() float64 {
		if perturbed {
			return float64(100 + rng.Intn(11))
		}
		return 1
	}
	// Terminals 0..nTerm-1, Steiner vertices nTerm..n-1.
	for t := 0; t < nTerm; t++ {
		s.Terminal[t] = true
		seen := map[int]bool{}
		for k := 0; k < deg; k++ {
			v := nTerm + rng.Intn(nSteiner)
			if seen[v] {
				continue
			}
			seen[v] = true
			s.G.AddEdge(t, v, cost())
		}
	}
	// Steiner backbone: a random connected sparse graph.
	for v := nTerm + 1; v < n; v++ {
		w := nTerm + rng.Intn(v-nTerm)
		s.G.AddEdge(v, w, cost())
	}
	extra := 2 * nSteiner
	for k := 0; k < extra; k++ {
		u := nTerm + rng.Intn(nSteiner)
		v := nTerm + rng.Intn(nSteiner)
		if u != v {
			s.G.AddEdge(u, v, cost())
		}
	}
	return s
}

func variant(perturbed bool) string {
	if perturbed {
		return "p"
	}
	return "u"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// registry is the one place outside the benchmark where a Steiner
// instance name becomes a graph, one graph per name. A SteinLib name goes
// only on a graph with that instance's construction and its vertex, edge
// and terminal counts; every other name is its generator call (the
// function lower-cased, arguments joined by '-', booleans as 0/1, the
// seed last). opt is the proven optimum, 0 when none is known:
// Dreyfus–Wagner's for up to 16 terminals, SteinLib's listed value for
// hc6u (unit costs, even-parity terminals, as in SteinLib).
var registry = []struct {
	name  string
	opt   float64
	build func() *steiner.SPG
}{
	// Table 1 column 1, the paper's cc3-4p: the root does nearly all the work.
	{"cc3-4p", 940, func() *steiner.SPG { return CodeCover(3, 4, 8, true, 341) }},
	// Table 1 column 2.
	{"cc3-5u", 15, func() *steiner.SPG { return CodeCover(3, 5, 13, false, 352) }},
	{"hc6p", 0, func() *steiner.SPG { return Hypercube(6, true, 761) }},
	{"hc6u", 39, func() *steiner.SPG { return Hypercube(6, false, 762) }},
	{"hc7p", 0, func() *steiner.SPG { return Hypercube(7, true, 77) }},
	{"hc7u", 0, func() *steiner.SPG { return Hypercube(7, false, 1) }},
	// Table 1 column 3, and Table 2's restart series in the paper's
	// bip52u role.
	{"hypercubespread-5-16-100-163-19", 2352, func() *steiner.SPG { return HypercubeSpread(5, 16, 100, 163, 19) }},
	// Table 1 column 4.
	{"hypercubespread-5-16-100-165-23", 2398, func() *steiner.SPG { return HypercubeSpread(5, 16, 100, 165, 23) }},
	// Table 1 headline, in the paper's hc7u role: open after the
	// sequential time limit, closed by parallel ParaSolvers.
	{"hypercubespread-6-32-100-168-3", 0, func() *steiner.SPG { return HypercubeSpread(6, 32, 100, 168, 3) }},
	// Table 3, in the paper's hc10p role: the gap stays open while
	// seeded runs work on the incumbent.
	{"hypercube-5-1-5", 2050, func() *steiner.SPG { return Hypercube(5, true, 5) }},
	// hc5u, the fixture whose dual bound is checked against its optimum.
	{"hypercube-5-0-1", 20, func() *steiner.SPG { return Hypercube(5, false, 1) }},
}

// Named returns the instance registered under name, with SPG.Name set to
// it, or nil for an unknown name.
func Named(name string) *steiner.SPG {
	for _, r := range registry {
		if r.name == name {
			s := r.build()
			s.Name = name
			return s
		}
	}
	return nil
}

// Names lists the registered instance names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}
