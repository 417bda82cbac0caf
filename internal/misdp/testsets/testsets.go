// Package testsets generates the three CBLIB application families that
// the paper's Table 4 and Figure 1 aggregate: truss topology design
// (TTD), cardinality-constrained least squares (CLS) and minimum
// k-partitioning (Mk-P). The original CBLIB files are substituted by
// the standard textbook MISDP formulations of the same applications at
// reduced size (see DESIGN.md, substitution 4); the property that
// matters for the study is preserved — CLS instances favor the LP
// cutting-plane approach, Mk-P instances the SDP approach, and TTD sits
// in between, which is what racing ramp-up exploits.
package testsets

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/misdp"
	"repro/internal/sdp"
)

// TTD builds a truss topology design instance: choose integer bar areas
// a_e ∈ {0,…,amax} of minimum total volume such that the structure's
// stiffness matrix dominates a load threshold,
//
//	Σ_e a_e K_e ⪰ τ·I_d,   minimize Σ_e l_e a_e,
//
// with K_e = g_e g_eᵀ elementary stiffness matrices from a random ground
// structure. In the paper's dual form: C = −τI, A_e = −K_e, b_e = −l_e.
func TTD(dim, bars, amax int, seed int64) *misdp.MISDP {
	rng := rand.New(rand.NewSource(seed))
	p := &misdp.MISDP{Name: fmt.Sprintf("ttd-%d-%d-s%d", dim, bars, seed)}
	blk := &sdp.Block{N: dim}
	sum := linalg.NewSym(dim)
	lengths := make([]float64, bars)
	for e := 0; e < bars; e++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		k := linalg.NewSym(dim)
		k.OuterAdd(1, g)
		sum.AddScaled(float64(amax), k)
		neg := k.Clone()
		neg.Scale(-1)
		blk.A = append(blk.A, neg)
		lengths[e] = 1 + rng.Float64()*3
	}
	// τ chosen so the full design is strictly feasible.
	lam, _ := linalg.MinEigen(sum)
	tau := 0.4 * lam
	if tau <= 0 {
		tau = 0.1
	}
	blk.C = linalg.Identity(dim, -tau)
	p.Blocks = []*sdp.Block{blk}
	for e := 0; e < bars; e++ {
		p.AddVar(-lengths[e], 0, float64(amax), true)
	}
	return p
}

// CLS builds a cardinality-constrained least squares instance:
//
//	min ‖Ax − d‖²  s.t.  ‖x‖₀ ≤ k,
//
// in MISDP form via the Schur complement block
// [[I, Ax−d], [(Ax−d)ᵀ, t]] ⪰ 0 (⟺ t ≥ ‖Ax−d‖²) with binary support
// indicators z_j, big-M rows |x_j| ≤ M·z_j and Σz ≤ k. Objective sup −t.
func CLS(features, observations, k int, seed int64) *misdp.MISDP {
	rng := rand.New(rand.NewSource(seed))
	q, pdim := observations, features
	a := make([][]float64, q)
	xTrue := make([]float64, pdim)
	for j := 0; j < k && j < pdim; j++ {
		xTrue[j] = rng.NormFloat64() * 2
	}
	d := make([]float64, q)
	for i := 0; i < q; i++ {
		a[i] = make([]float64, pdim)
		for j := 0; j < pdim; j++ {
			a[i][j] = rng.NormFloat64()
			d[i] += a[i][j] * xTrue[j]
		}
		d[i] += 0.1 * rng.NormFloat64()
	}
	const bigM = 10
	p := &misdp.MISDP{Name: fmt.Sprintf("cls-%d-%d-%d-s%d", pdim, q, k, seed)}
	// Variables: x_0..x_{p−1}, z_0..z_{p−1}, t.
	xs := make([]int, pdim)
	zs := make([]int, pdim)
	for j := 0; j < pdim; j++ {
		xs[j] = p.AddVar(0, -bigM, bigM, false)
	}
	for j := 0; j < pdim; j++ {
		zs[j] = p.AddVar(0, 0, 1, true)
	}
	var dd float64
	for i := 0; i < q; i++ {
		dd += d[i] * d[i]
	}
	t := p.AddVar(-1, 0, 4*dd+10, false) // sup −t = min t
	// Block of order q+1.
	n := q + 1
	c := linalg.NewSym(n)
	for i := 0; i < q; i++ {
		c.Set(i, i, 1)
		c.Set(i, q, -d[i])
	}
	blk := &sdp.Block{N: n, C: c, A: make([]*linalg.Sym, p.M)}
	for j := 0; j < pdim; j++ {
		m := linalg.NewSym(n)
		for i := 0; i < q; i++ {
			m.Set(i, q, -a[i][j]) // Z gains +a_ij·x_j in position (i,q)
		}
		blk.A[xs[j]] = m
	}
	mt := linalg.NewSym(n)
	mt.Set(q, q, -1)
	blk.A[t] = mt
	p.Blocks = []*sdp.Block{blk}
	// Big-M rows and cardinality.
	for j := 0; j < pdim; j++ {
		row1 := make([]float64, p.M)
		row1[xs[j]] = 1
		row1[zs[j]] = -bigM
		p.Rows = append(p.Rows, sdp.Row{Coef: row1, RHS: 0})
		row2 := make([]float64, p.M)
		row2[xs[j]] = -1
		row2[zs[j]] = -bigM
		p.Rows = append(p.Rows, sdp.Row{Coef: row2, RHS: 0})
	}
	card := make([]float64, p.M)
	for j := 0; j < pdim; j++ {
		card[zs[j]] = 1
	}
	p.Rows = append(p.Rows, sdp.Row{Coef: card, RHS: float64(k)})
	return p
}

// MkP builds a minimum k-partitioning instance: partition the vertices
// of a weighted graph into at most k classes minimizing the total weight
// inside classes. MISDP form: X_ij ∈ {−1/(k−1), 1}, X_ii = 1, X ⪰ 0,
// with binary y_e ⟺ X_ij = 1 (edge e = (i,j) inside a class); minimize
// Σ w_e y_e.
func MkP(vertices, k int, seed int64) *misdp.MISDP {
	rng := rand.New(rand.NewSource(seed))
	n := vertices
	p := &misdp.MISDP{Name: fmt.Sprintf("mkp-%d-%d-s%d", n, k, seed)}
	base := -1.0 / float64(k-1)
	span := 1 - base // X_ij = base + y_e·span
	c := linalg.NewSym(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				c.Set(i, i, 1)
			} else {
				c.A[i*n+j] = base
			}
		}
	}
	blk := &sdp.Block{N: n, C: c}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := float64(1 + rng.Intn(9))
			p.AddVar(-w, 0, 1, true)
			m := linalg.NewSym(n)
			m.Set(i, j, -span)
			blk.A = append(blk.A, m)
		}
	}
	p.Blocks = []*sdp.Block{blk}
	return p
}

// MkPWeights reproduces the weight matrix used by MkP for the oracle.
func MkPWeights(vertices int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	n := vertices
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(1 + rng.Intn(9))
			w[i][j] = v
			w[j][i] = v
		}
	}
	return w
}

// maxSize bounds ByFamily's n: Mk-P carries n(n−1)/2 coefficient
// matrices of order n, so memory grows with n⁴; the paper-scale
// analogues stay below 20.
const maxSize = 32

// ByFamily is the one place a family name and the (n, k) size pair
// become an instance — ugmisdp's flags and ugserve's misdp jobs both
// end here. n is bars (ttd), features (cls) or vertices (mkp), k the
// cardinality (cls) or class count (mkp); zero selects the family
// default. It returns the instance with a canonical description of the
// request, a pure function of the arguments, which ugserve hashes into
// its presolve-cache key.
func ByFamily(family string, n, k int, seed int64) (*misdp.MISDP, string, error) {
	canonical := fmt.Sprintf("%s n=%d k=%d seed=%d", family, n, k, seed)
	if n < 0 || n > maxSize || k < 0 {
		return nil, "", fmt.Errorf("testsets: %s: need 0 <= n <= %d and k >= 0", canonical, maxSize)
	}
	or := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	switch family {
	case "ttd":
		return TTD(4, or(n, 8), 2, seed), canonical, nil
	case "cls":
		features, card := or(n, 6), or(k, 3)
		if card > features {
			return nil, "", fmt.Errorf("testsets: cls cardinality %d exceeds the %d features", card, features)
		}
		return CLS(features, features+2, card, seed), canonical, nil
	case "mkp":
		verts, classes := or(n, 7), or(k, 3)
		if classes < 2 || classes > verts {
			return nil, "", fmt.Errorf("testsets: mkp needs 2 <= k <= n (got k=%d, n=%d)", classes, verts)
		}
		return MkP(verts, classes, seed), canonical, nil
	}
	return nil, "", fmt.Errorf("testsets: unknown family %q (want ttd, cls, mkp)", family)
}
