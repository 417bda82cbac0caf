package puc

import (
	"fmt"

	"repro/internal/steiner"
)

// Params names one generated PUC-family instance: the vocabulary
// cmd/stpgen's flags and ugserve's "gen" object share. A zero A,
// Terminals, Steiner or Deg selects the family default; D has none.
type Params struct {
	Family    string // hc, cc, bip
	D         int    // dimension (hc, cc)
	A         int    // alphabet size (cc; 0 = 3)
	Terminals int    // terminal count (0 = every even-parity word for hc, 8 for cc, 16 for bip)
	Steiner   int    // Steiner-side size (bip; 0 = 60)
	Deg       int    // terminal degree (bip; 0 = 3)
	Perturbed bool   // perturbed costs (p variant) instead of unit (u)
	Seed      int64
}

// maxVertices bounds the vertex count a Params may imply. The largest
// PUC original has 4096 vertices; past the cap a request is a mistake or
// an attack on the allocator, not an instance anyone can solve.
const maxVertices = 1 << 14

// Generate is the one place a family name and its parameters become an
// instance: it applies the defaults, rejects parameters no generator can
// honour (the generators themselves index and shift by them unchecked),
// and returns the instance with a canonical description of the request —
// a pure function of p, which ugserve hashes into its presolve-cache key.
func Generate(p Params) (*steiner.SPG, string, error) {
	canonical := fmt.Sprintf("%s d=%d a=%d t=%d s=%d deg=%d p=%v seed=%d",
		p.Family, p.D, p.A, p.Terminals, p.Steiner, p.Deg, p.Perturbed, p.Seed)
	for _, f := range []struct {
		name string
		v    int
	}{{"d", p.D}, {"a", p.A}, {"terminals", p.Terminals}, {"steiner", p.Steiner}, {"deg", p.Deg}} {
		if f.v < 0 || f.v > maxVertices {
			return nil, "", fmt.Errorf("puc: %s=%d out of range [0, %d]", f.name, f.v, maxVertices)
		}
	}
	or := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	var (
		n     int // implied vertex count
		build func() *steiner.SPG
	)
	switch p.Family {
	case "hc":
		n = power(2, p.D)
		build = func() *steiner.SPG {
			if p.Terminals > 0 {
				return HypercubeT(p.D, p.Terminals, p.Perturbed, p.Seed)
			}
			return Hypercube(p.D, p.Perturbed, p.Seed)
		}
	case "cc":
		a, t := or(p.A, 3), or(p.Terminals, 8)
		n = power(a, p.D)
		build = func() *steiner.SPG { return CodeCover(p.D, a, t, p.Perturbed, p.Seed) }
	case "bip":
		t, s, deg := or(p.Terminals, 16), or(p.Steiner, 60), or(p.Deg, 3)
		if deg > s {
			return nil, "", fmt.Errorf("puc: deg=%d exceeds the Steiner side (%d)", deg, s)
		}
		n = t + s
		build = func() *steiner.SPG { return Bipartite(t, s, deg, p.Perturbed, p.Seed) }
	default:
		return nil, "", fmt.Errorf("puc: unknown family %q (want hc, cc, bip)", p.Family)
	}
	switch {
	case p.Family != "bip" && p.D < 1:
		return nil, "", fmt.Errorf("puc: family %s needs d >= 1 (got %d)", p.Family, p.D)
	case n > maxVertices:
		return nil, "", fmt.Errorf("puc: %s implies more than %d vertices", canonical, maxVertices)
	case p.Terminals > n:
		return nil, "", fmt.Errorf("puc: terminals=%d exceeds the %d vertices", p.Terminals, n)
	}
	return build(), canonical, nil
}

// power returns base^exp, stopping as soon as the product passes
// maxVertices so that no in-range pair can overflow.
func power(base, exp int) int {
	n := 1
	for i := 0; i < exp && n <= maxVertices; i++ {
		n *= base
	}
	return n
}
