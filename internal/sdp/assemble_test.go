package sdp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/num"
)

// The dense reference: the formulas the solver used before the compiled
// form — every A_i treated as dense and unstructured, W_i = Z⁻¹A_i formed
// by a full product, tr(W_iW_j) over all n² cells, rows scanned over all
// ext² Hessian cells. Kept here as the oracle the structure-aware
// assembly is checked against.

func denseZ(b *Block, y []float64) *linalg.Sym {
	z := b.C.Clone()
	for i, a := range b.A {
		if a != nil && num.Nonzero(y[i]) {
			z.AddScaled(-y[i], a)
		}
	}
	return z
}

func dotDense(a, y []float64) float64 {
	var acc float64
	for i, v := range a {
		if num.Nonzero(v) {
			acc += v * y[i]
		}
	}
	return acc
}

// symProduct computes P = X·Y for symmetric X, Y (P generally not
// symmetric; stored densely in a Sym container for convenience).
func symProduct(x, y *linalg.Sym) *linalg.Sym {
	n := x.N
	p := linalg.NewSym(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			xik := x.A[i*n+k]
			row := y.A[k*n:]
			for j := 0; j < n; j++ {
				p.A[i*n+j] += xik * row[j]
			}
		}
	}
	return p
}

// traceProduct computes tr(P·Q) for dense square P, Q.
func traceProduct(p, q *linalg.Sym) float64 {
	n := p.N
	var acc float64
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			acc += p.A[i*n+k] * q.A[k*n+i]
		}
	}
	return acc
}

func denseGradHess(p *Problem, y []float64, mu, gamma float64, useS bool) (grad []float64, negHess *linalg.Sym, ok bool) {
	m := p.M
	ext := m
	if useS {
		ext = m + 1
	}
	grad = make([]float64, ext)
	negHess = linalg.NewSym(ext)
	copy(grad, p.B)
	s := 0.0
	if useS {
		s = y[m]
		grad[m] = -gamma + mu/s
		negHess.A[m*ext+m] += mu / (s * s)
	}
	for i := 0; i < m; i++ {
		if !math.IsInf(p.Lo[i], -1) {
			d := y[i] - p.Lo[i]
			grad[i] += mu / d
			negHess.A[i*ext+i] += mu / (d * d)
		}
		if !math.IsInf(p.Up[i], 1) {
			d := p.Up[i] - y[i]
			grad[i] -= mu / d
			negHess.A[i*ext+i] += mu / (d * d)
		}
	}
	for _, r := range p.Rows {
		slack := r.RHS - dotDense(r.Coef, y[:m]) + s
		if slack <= 0 {
			return nil, nil, false
		}
		coefExt := func(i int) float64 {
			if i == m {
				return -1
			}
			return r.Coef[i]
		}
		for i := 0; i < ext; i++ {
			ai := coefExt(i)
			grad[i] -= mu * ai / slack
			for j := 0; j < ext; j++ {
				negHess.A[i*ext+j] += mu * ai * coefExt(j) / (slack * slack)
			}
		}
	}
	for _, blk := range p.Blocks {
		z := denseZ(blk, y[:m])
		for i := 0; i < blk.N; i++ {
			z.A[i*blk.N+i] += s
		}
		ch, err := linalg.Cholesky(z)
		if err != nil {
			return nil, nil, false
		}
		zinv := ch.Inverse()
		prods := make([]*linalg.Sym, m)
		for i := 0; i < m; i++ {
			if blk.A[i] != nil {
				prods[i] = symProduct(zinv, blk.A[i])
			}
		}
		for i := 0; i < m; i++ {
			if prods[i] == nil {
				continue
			}
			grad[i] -= mu * prods[i].Trace()
			for j := i; j < m; j++ {
				if prods[j] == nil {
					continue
				}
				v := mu * traceProduct(prods[i], prods[j])
				negHess.A[i*ext+j] += v
				if i != j {
					negHess.A[j*ext+i] += v
				}
			}
			if useS {
				v := mu * traceProduct(prods[i], zinv)
				negHess.A[i*ext+m] -= v
				negHess.A[m*ext+i] -= v
			}
		}
		if useS {
			grad[m] += mu * zinv.Trace()
			negHess.A[m*ext+m] += mu * zinv.InnerProd(zinv)
		}
	}
	return grad, negHess, true
}

// Coefficient shapes of the random blocks.
const (
	shapeNil = iota
	shapeSparse
	shapeRankOneDense
	shapeRankOneSparse
	shapeDense
	shapeZero
)

func randCoef(rng *rand.Rand, n, shape int) *linalg.Sym {
	a := linalg.NewSym(n)
	outer := func(v []float64) {
		sigma := 1.0
		if rng.Intn(2) == 0 {
			sigma = -1
		}
		a.OuterAdd(sigma, v)
	}
	switch shape {
	case shapeNil:
		return nil
	case shapeSparse:
		for k := 0; k < 1+rng.Intn(3); k++ {
			a.Set(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
	case shapeRankOneDense:
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		outer(v)
	case shapeRankOneSparse:
		v := make([]float64, n)
		for k := 0; k < 1+rng.Intn(2); k++ {
			v[rng.Intn(n)] = rng.NormFloat64()
		}
		outer(v)
	case shapeDense:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return a
}

// randProblem builds a problem whose blocks have the given orders and
// whose variable i has shapes[k][i] in block k, together with an
// extended point (y, s) at which it is strictly feasible.
func randProblem(rng *rand.Rand, orders []int, shapes [][]int, rows int) (*Problem, []float64) {
	m := len(shapes[0])
	p := &Problem{M: m, B: make([]float64, m), Lo: make([]float64, m), Up: make([]float64, m)}
	y := make([]float64, m+1)
	for i := 0; i < m; i++ {
		p.B[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
		p.Lo[i], p.Up[i] = math.Inf(-1), math.Inf(1)
		if rng.Intn(4) > 0 {
			p.Lo[i] = y[i] - 0.5 - rng.Float64()
		}
		if rng.Intn(4) > 0 {
			p.Up[i] = y[i] + 0.5 + rng.Float64()
		}
	}
	y[m] = 0.5 + rng.Float64()
	for k, n := range orders {
		blk := &Block{N: n, A: make([]*linalg.Sym, m)}
		for i := range blk.A {
			blk.A[i] = randCoef(rng, n, shapes[k][i])
		}
		// C = Σ A_i y_i + G Gᵀ + I/2 makes Z(y) positive definite without
		// the slack.
		blk.C = linalg.Identity(n, 0.5)
		for i, a := range blk.A {
			if a != nil {
				blk.C.AddScaled(y[i], a)
			}
		}
		g := make([]float64, n)
		for r := 0; r < n; r++ {
			for i := range g {
				g[i] = 0.5 * rng.NormFloat64()
			}
			blk.C.OuterAdd(1, g)
		}
		p.Blocks = append(p.Blocks, blk)
	}
	for r := 0; r < rows; r++ {
		coef := make([]float64, m)
		for k := 0; k < 1+rng.Intn(3); k++ {
			coef[rng.Intn(m)] = rng.NormFloat64()
		}
		p.Rows = append(p.Rows, Row{Coef: coef, RHS: dotDense(coef, y[:m]) + 0.3 + rng.Float64()})
	}
	return p, y
}

func repeatShape(shape, m int) []int {
	s := make([]int, m)
	for i := range s {
		s[i] = shape
	}
	return s
}

func TestGradHessAgainstDenseReference(t *testing.T) {
	mixed := []int{shapeSparse, shapeRankOneDense, shapeNil, shapeRankOneSparse, shapeDense, shapeZero, shapeSparse, shapeRankOneDense}
	mixed2 := []int{shapeRankOneSparse, shapeNil, shapeDense, shapeSparse, shapeNil, shapeRankOneDense, shapeRankOneDense, shapeSparse}
	cases := []struct {
		name   string
		orders []int
		shapes [][]int
	}{
		{"sparse", []int{6}, [][]int{repeatShape(shapeSparse, 7)}},
		{"rank-one-dense", []int{5}, [][]int{repeatShape(shapeRankOneDense, 6)}},
		{"rank-one-sparse", []int{7}, [][]int{repeatShape(shapeRankOneSparse, 6)}},
		{"dense", []int{4}, [][]int{repeatShape(shapeDense, 5)}},
		{"mixed", []int{6}, [][]int{mixed}},
		{"two-blocks", []int{3, 7}, [][]int{mixed, mixed2}},
	}
	const mu, gamma = 0.3, 7.0
	for _, tc := range cases {
		for _, rows := range []int{0, 4} {
			for _, useS := range []bool{true, false} {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					p, y := randProblem(rng, tc.orders, tc.shapes, rows)
					ws := newWorkspace(p)
					for k, row := range tc.shapes {
						for i, shape := range row {
							rankOne := shape == shapeRankOneDense || shape == shapeRankOneSparse
							if shape != shapeSparse && ws.blocks[k].coefs[i].rankOne != rankOne {
								t.Fatalf("%s seed %d: block %d variable %d (shape %d) compiled with rankOne=%v", tc.name, seed, k, i, shape, !rankOne)
							}
						}
					}
					f0, ok := ws.gradHess(p, y, mu, gamma, useS)
					wantGrad, wantHess, wantOK := denseGradHess(p, y, mu, gamma, useS)
					if !ok || !wantOK {
						t.Fatalf("%s rows=%d useS=%v seed %d: not feasible (ok=%v, reference %v)", tc.name, rows, useS, seed, ok, wantOK)
					}
					ext := len(wantGrad)
					if len(ws.grad) != ext || ws.hess.N != ext {
						t.Fatalf("%s: order %d/%d, want %d", tc.name, len(ws.grad), ws.hess.N, ext)
					}
					gscale, hscale := 1+linalg.NormInf(wantGrad), 1+wantHess.MaxAbs()
					for i := 0; i < ext; i++ {
						if d := math.Abs(ws.grad[i] - wantGrad[i]); d > 1e-10*gscale {
							t.Fatalf("%s rows=%d useS=%v seed %d: grad[%d] = %v, reference %v", tc.name, rows, useS, seed, i, ws.grad[i], wantGrad[i])
						}
						for j := 0; j < ext; j++ {
							got := ws.hess.A[i*ext+j]
							if d := math.Abs(got - wantHess.A[i*ext+j]); d > 1e-10*hscale {
								t.Fatalf("%s rows=%d useS=%v seed %d: hess[%d,%d] = %v, reference %v", tc.name, rows, useS, seed, i, j, got, wantHess.A[i*ext+j])
							}
							if !num.ExactEq(got, ws.hess.A[j*ext+i]) {
								t.Fatalf("%s rows=%d useS=%v seed %d: hess[%d,%d] ≠ hess[%d,%d] in the last bits", tc.name, rows, useS, seed, i, j, j, i)
							}
						}
					}
					// gradHess's value is the one the line search compares
					// against: it must be barrierValue's to the bit.
					fv, ok := ws.barrierValue(p, y, mu, gamma, useS)
					if !ok || !num.ExactEq(fv, f0) {
						t.Fatalf("%s rows=%d useS=%v seed %d: gradHess value %v, barrierValue %v (ok=%v)", tc.name, rows, useS, seed, f0, fv, ok)
					}
					// The gradient is the derivative of barrierValue.
					grad := append([]float64(nil), ws.grad...)
					yy := append([]float64(nil), y...)
					const h = 1e-5
					for i := 0; i < ext; i++ {
						yy[i] = y[i] + h
						fp, okp := ws.barrierValue(p, yy, mu, gamma, useS)
						yy[i] = y[i] - h
						fm, okm := ws.barrierValue(p, yy, mu, gamma, useS)
						yy[i] = y[i]
						if !okp || !okm {
							t.Fatalf("%s: finite-difference point left the interior", tc.name)
						}
						if fd := (fp - fm) / (2 * h); math.Abs(fd-grad[i]) > 1e-6*gscale {
							t.Fatalf("%s rows=%d useS=%v seed %d: grad[%d] = %v, finite difference %v", tc.name, rows, useS, seed, i, grad[i], fd)
						}
					}
				}
			}
		}
	}
}

func TestBlockZMatchesDenseEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []int{shapeSparse, shapeRankOneDense, shapeNil, shapeRankOneSparse, shapeDense, shapeZero}
	p, y := randProblem(rng, []int{6}, [][]int{shapes}, 0)
	y[1] = 0 // a zero multiplier is skipped, not multiplied through
	got, want := p.Blocks[0].Z(y), denseZ(p.Blocks[0], y)
	ws := newWorkspace(p)
	ws.blocks[0].evalZ(y, 0)
	for i := range want.A {
		if !num.ExactEq(got.A[i], want.A[i]) || !num.ExactEq(ws.blocks[0].z.A[i], want.A[i]) {
			t.Fatalf("Z cell %d: Block.Z %v, workspace %v, dense %v", i, got.A[i], ws.blocks[0].z.A[i], want.A[i])
		}
	}
}

func TestRankOneDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 6
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	outer := func(sigma float64, v []float64) *linalg.Sym {
		a := linalg.NewSym(n)
		a.OuterAdd(sigma, v)
		return a
	}
	for _, sigma := range []float64{1, -1} {
		a := outer(sigma, v)
		gotSigma, gotV, ok := rankOneFactor(a)
		if !ok || !num.ExactEq(gotSigma, sigma) {
			t.Fatalf("σ=%v: exact ±v vᵀ rejected (ok=%v σ=%v)", sigma, ok, gotSigma)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(gotSigma*gotV[i]*gotV[j] - a.A[i*n+j]); d > 1e-14*a.MaxAbs() {
					t.Fatalf("σ=%v: factor misses A[%d,%d] by %v", sigma, i, j, d)
				}
			}
		}
	}
	sparse := make([]float64, n)
	sparse[4] = 1
	if _, _, ok := rankOneFactor(outer(-1, sparse)); !ok {
		t.Fatal("−e_q e_qᵀ rejected")
	}

	perturbed := outer(1, v)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			perturbed.Set(i, j, perturbed.At(i, j)+1e-9*rng.NormFloat64())
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	rankTwo := outer(1, v)
	rankTwo.OuterAdd(1, w)
	zeroDiag := linalg.NewSym(n)
	zeroDiag.Set(1, 3, 2)
	rejected := map[string]*linalg.Sym{
		"v vᵀ + 1e-9·E": perturbed,
		"rank two":      rankTwo,
		"zero matrix":   linalg.NewSym(n),
		"zero diagonal": zeroDiag,
	}
	for name, a := range rejected {
		if _, _, ok := rankOneFactor(a); ok {
			t.Errorf("%s accepted as rank one", name)
		}
	}

	// Rejected matrices go through the general form and still assemble
	// the right system.
	m := 4
	p := &Problem{M: m, B: make([]float64, m), Lo: []float64{-3, -3, -3, -3}, Up: []float64{3, 3, 3, 3}}
	blk := &Block{N: n, C: linalg.Identity(n, 40), A: []*linalg.Sym{perturbed, rankTwo, linalg.NewSym(n), zeroDiag}}
	p.Blocks = []*Block{blk}
	y := []float64{0.3, -0.2, 0.9, 0.4, 1.5}
	ws := newWorkspace(p)
	for _, i := range ws.blocks[0].live {
		if ws.blocks[0].coefs[i].rankOne {
			t.Fatalf("variable %d compiled as rank one", i)
		}
	}
	if _, ok := ws.gradHess(p, y, 0.2, 5, true); !ok {
		t.Fatal("test point not feasible")
	}
	wantGrad, wantHess, _ := denseGradHess(p, y, 0.2, 5, true)
	for i, g := range wantGrad {
		if math.Abs(ws.grad[i]-g) > 1e-10*(1+linalg.NormInf(wantGrad)) {
			t.Fatalf("grad[%d] = %v, reference %v", i, ws.grad[i], g)
		}
	}
	for i, h := range wantHess.A {
		if math.Abs(ws.hess.A[i]-h) > 1e-10*(1+wantHess.MaxAbs()) {
			t.Fatalf("hess cell %d = %v, reference %v", i, ws.hess.A[i], h)
		}
	}
}

// newWorkspace returns a workspace reset for p, as a new Solver's.
func newWorkspace(p *Problem) *workspace {
	ws := new(workspace)
	ws.reset(p)
	return ws
}

// rootIterate returns the workspace of p and the point its barrier
// solve starts from.
func rootIterate(tb testing.TB, p *Problem) (*workspace, []float64) {
	tb.Helper()
	ws := newWorkspace(p)
	y := make([]float64, p.M+1)
	ws.startPoint(p, y)
	if !ws.strictlyFeasible(p, y, true) {
		tb.Fatal("root iterate not strictly feasible")
	}
	return ws, y
}

func TestNewtonStepDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []int{shapeSparse, shapeRankOneDense, shapeNil, shapeRankOneSparse, shapeDense, shapeSparse}
	p, y := randProblem(rng, []int{5, 3}, [][]int{shapes, shapes}, 3)
	ws := newWorkspace(p)
	for _, useS := range []bool{true, false} {
		mu := 1.0
		allocs := testing.AllocsPerRun(20, func() {
			if ws.newtonStep(p, y, mu, 5, useS) < 0 {
				t.Fatal("Newton step failed")
			}
			mu *= 0.9
		})
		if allocs != 0 {
			t.Errorf("useS=%v: Newton step allocates %v times, want 0", useS, allocs)
		}
	}
}

// An accepted Newton step leaves every block factored at the new y, and
// the next gradHess takes the factors and the log sum over instead of
// computing them again. It must return what a freshly compiled
// workspace computes at the same point, to the bit, also at the next
// level's μ. After any other evaluation that factors — at s = 0, or a
// line-search trial after the gradient took the factors over — the
// next gradHess must factor afresh.
func TestGradHessReusesAcceptedFactor(t *testing.T) {
	shapes := []int{shapeSparse, shapeRankOneDense, shapeNil, shapeRankOneSparse, shapeDense, shapeSparse}
	for _, orders := range [][]int{{5}, {5, 3}} {
		for _, useS := range []bool{true, false} {
			rng := rand.New(rand.NewSource(13))
			blockShapes := make([][]int, len(orders))
			for k := range blockShapes {
				blockShapes[k] = shapes
			}
			p, y := randProblem(rng, orders, blockShapes, 3)
			ws := newWorkspace(p)
			const gamma = 5.0
			mu := 1.0
			between := []struct {
				name    string
				factors func()
			}{
				{"nothing", func() {}},
				{"strictlyFeasible", func() { ws.strictlyFeasible(p, y, false) }},
				{"rigorousUpperBound", func() { ws.rigorousUpperBound(p, y[:p.M], 0, mu) }},
				{"a gradient and a rejected trial", func() {
					ws.gradHess(p, y, mu, gamma, useS)
					trial := append([]float64(nil), y...)
					for i := range trial {
						trial[i] += 1e-3
					}
					ws.barrierValue(p, trial, mu, gamma, useS)
				}},
			}
			for step := 0; step < 8; step++ {
				if ws.newtonStep(p, y, mu, gamma, useS) < 0 {
					t.Fatalf("blocks %v useS=%v step %d: Newton step failed", orders, useS, step)
				}
				if !ws.factored {
					t.Fatalf("blocks %v useS=%v step %d: accepted step did not mark the factors", orders, useS, step)
				}
				mu *= sigma
				b := between[step%len(between)]
				b.factors()
				f, ok := ws.gradHess(p, y, mu, gamma, useS)
				fresh := newWorkspace(p)
				want, wantOK := fresh.gradHess(p, y, mu, gamma, useS)
				if !ok || !wantOK || !num.ExactEq(f, want) {
					t.Fatalf("blocks %v useS=%v step %d after %s: value %v (ok=%v), fresh %v (ok=%v)", orders, useS, step, b.name, f, ok, want, wantOK)
				}
				for i, g := range fresh.grad {
					if !num.ExactEq(ws.grad[i], g) {
						t.Fatalf("blocks %v useS=%v step %d after %s: grad[%d] = %v, fresh %v", orders, useS, step, b.name, i, ws.grad[i], g)
					}
				}
				for i, h := range fresh.hess.A {
					if !num.ExactEq(ws.hess.A[i], h) {
						t.Fatalf("blocks %v useS=%v step %d after %s: hess cell %d = %v, fresh %v", orders, useS, step, b.name, i, ws.hess.A[i], h)
					}
				}
			}
		}
	}
}
