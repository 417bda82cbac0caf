package sdp

import (
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/num"
)

// rankOneTol is the relative tolerance of the rank-one test: A counts
// as σ·v·vᵀ when every entry of A − σ·v·vᵀ is at most rankOneTol times
// the largest entry of A. It sits well above the rounding of one
// product and one square root and six orders below any perturbation a
// model would introduce on purpose.
const rankOneTol = 1e-12

// entry is one upper-triangle nonzero A[r][c] = v, r ≤ c. kr and kc are
// the positions of r and c in the owning coef's cols.
type entry struct {
	r, c   int
	kr, kc int
	v      float64
}

// upperEntries returns the nonzeros of a's upper triangle in row-major
// order (kr, kc left zero).
func upperEntries(a *linalg.Sym) []entry {
	var dst []entry
	n := a.N
	for r := 0; r < n; r++ {
		for c := r; c < n; c++ {
			if v := a.A[r*n+c]; num.Nonzero(v) {
				dst = append(dst, entry{r: r, c: c, v: v})
			}
		}
	}
	return dst
}

// subScaled subtracts y·A from z, A given by its upper-triangle entries.
func subScaled(z *linalg.Sym, y float64, ents []entry) {
	n := z.N
	for _, e := range ents {
		t := -y * e.v
		z.A[e.r*n+e.c] += t
		if e.r != e.c {
			z.A[e.c*n+e.r] += t
		}
	}
}

// coef is the compiled form of one coefficient matrix A_i of a block.
type coef struct {
	ents []entry // upper-triangle nonzeros, row-major
	cols []int   // columns (= rows) holding a nonzero, ascending
	// A = sigma·v·vᵀ (sigma = ±1, v of the block's order, zero off
	// cols) when rankOne.
	rankOne bool
	sigma   float64
	v       []float64
}

// rankOneFactor tests A = σ·v·vᵀ to rankOneTol. The factor is read off
// the row of the largest diagonal entry, which a rank-one matrix cannot
// have zero.
func rankOneFactor(a *linalg.Sym) (sigma float64, v []float64, ok bool) {
	n := a.N
	p, app := 0, 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a.A[i*n+i]); d > app {
			p, app = i, d
		}
	}
	if num.ExactZero(app) {
		return 0, nil, false
	}
	sigma = 1
	if a.A[p*n+p] < 0 {
		sigma = -1
	}
	vp := sigma * math.Sqrt(app)
	v = make([]float64, n)
	for j := 0; j < n; j++ {
		v[j] = a.A[p*n+j] / vp
	}
	tol := rankOneTol * a.MaxAbs()
	for r := 0; r < n; r++ {
		for c := r; c < n; c++ {
			if math.Abs(a.A[r*n+c]-sigma*v[r]*v[c]) > tol {
				return 0, nil, false
			}
		}
	}
	return sigma, v, true
}

// compileCoef compiles a; pos is scratch of a's order.
func compileCoef(a *linalg.Sym, pos []int) coef {
	cf := coef{ents: upperEntries(a)}
	if len(cf.ents) == 0 {
		return cf
	}
	for j := range pos {
		pos[j] = -1
	}
	for _, e := range cf.ents {
		pos[e.r], pos[e.c] = 0, 0
	}
	for j, at := range pos {
		if at == 0 {
			pos[j] = len(cf.cols)
			cf.cols = append(cf.cols, j)
		}
	}
	for j := range cf.ents {
		e := &cf.ents[j]
		e.kr, e.kc = pos[e.r], pos[e.c]
	}
	cf.sigma, cf.v, cf.rankOne = rankOneFactor(a)
	return cf
}

// scratchLen is the length of cf's per-step scratch in a block of
// order n (see blockWork.w).
func (cf *coef) scratchLen(n int) int {
	if cf.rankOne {
		return n
	}
	return n * len(cf.cols)
}

// blockForm is a Block's compiled coefficient form. It is built once
// per Block and only read afterwards, by every solve over the Block.
type blockForm struct {
	coefs []coef // by variable; no entries for a nil or all-zero A_i
	live  []int  // variables with entries, ascending
}

// compileBlock compiles every coefficient matrix of b.
//
//ugo:coldpath once per Block: the O(m·n²) scan whose result every later solve over the Block reads
func compileBlock(b *Block) *blockForm {
	f := &blockForm{coefs: make([]coef, len(b.A))}
	pos := make([]int, b.N)
	for i, a := range b.A {
		if a == nil {
			continue
		}
		if f.coefs[i] = compileCoef(a, pos); len(f.coefs[i].ents) > 0 {
			f.live = append(f.live, i)
		}
	}
	return f
}

// compiled returns b's compiled form, compiling it on first use.
// First uses that race may each compile; one form is published, and
// the forms are equal.
func (b *Block) compiled() *blockForm {
	if f := b.form.Load(); f != nil {
		return f
	}
	f := compileBlock(b)
	if !b.form.CompareAndSwap(nil, f) {
		f = b.form.Load()
	}
	return f
}

// reducedInto writes into dst the block b with every variable outside
// keep fixed at its fixVal: C − Σ_fixed fixVal_i·A_i, folded in through
// the compiled entries in variable order, over b's compiled form
// restricted to keep, which it writes into form and publishes on dst —
// so the reduced block is never compiled. dst and form keep their
// storage from one call to the next; only the owner's solves read them.
func (b *Block) reducedInto(dst *Block, form *blockForm, keep []int, fixed []bool, fixVal []float64) {
	f := b.compiled()
	if dst.C == nil {
		dst.C = new(linalg.Sym)
	}
	c := dst.C
	c.N, c.A = b.N, resize(c.A, b.N*b.N)
	copy(c.A, b.C.A)
	for i, fx := range fixed {
		if fx && num.Nonzero(fixVal[i]) {
			subScaled(c, fixVal[i], f.coefs[i].ents)
		}
	}
	dst.N, dst.A = b.N, resize(dst.A, len(keep))
	form.coefs, form.live = resize(form.coefs, len(keep)), form.live[:0]
	for k, i := range keep {
		dst.A[k], form.coefs[k] = b.A[i], f.coefs[i]
		if len(form.coefs[k].ents) > 0 {
			form.live = append(form.live, k)
		}
	}
	dst.form.Store(form)
}

// blockWork is one block's compiled coefficients and the scratch its
// barrier terms are evaluated in.
type blockWork struct {
	n     int
	c     *linalg.Sym
	coefs []coef // the Block's compiled form, shared and only read
	live  []int  // variables of the problem with entries, ascending
	// w[k] is variable live[k]'s scratch, filled per Newton step: u =
	// Z⁻¹v (n floats) for a rank-one coefficient, otherwise the
	// len(cols) nonzero columns of W = Z⁻¹A, n floats each, in cols
	// order. The slices are cut from wbuf.
	w    [][]float64
	wbuf []float64

	z, zinv *linalg.Sym
	chol    *linalg.Chol
}

// rowWork is a linear row's nonzero support. The last slot is the
// penalty slack (index m, coefficient −1); it is part of the row only
// while the slack is alive.
type rowWork struct {
	idx []int
	val []float64
	rhs float64
}

// workspace is everything a solve evaluates the barrier in: the
// blocks' compiled coefficient forms, the rows compiled to their
// nonzero support, and every matrix and vector a Newton step writes. A
// Solver keeps one and resets it for every problem it solves; the
// phase-1 rescue runs, which see the same blocks and rows, share it.
type workspace struct {
	blocks []blockWork
	rows   []rowWork

	grad, delta, cand, resid []float64
	hessBuf, cholBuf         []float64
	hess                     linalg.Sym  // order ext, backed by hessBuf
	hchol                    linalg.Chol // order ext, backed by cholBuf
	eig                      []float64   // minEigenvalue's scratch

	// logs is the barrier's log sum at the point barrierValue last
	// evaluated. factored marks that this point is the iterate
	// newtonStep last accepted, so every block's chol holds the factor
	// of Z there and the next gradHess takes both over instead of
	// evaluating them again. Only the acceptance sets it; every other
	// path that factors or moves the iterate clears it.
	factored bool
	logs     float64
}

// reset reshapes ws for p: it takes p's compiled blocks, compiling
// those no solve has seen yet, compiles the rows and sizes the scratch,
// reusing every buffer whose capacity suffices.
//
//ugo:coldpath the per-solve setup: it allocates only where a buffer must grow, so that the Newton steps under it make no allocation
func (ws *workspace) reset(p *Problem) {
	m := p.M
	ws.factored = false
	ws.grad, ws.delta = resize(ws.grad, m+1), resize(ws.delta, m+1)
	ws.cand, ws.resid = resize(ws.cand, m+1), resize(ws.resid, m)
	ws.hessBuf = resize(ws.hessBuf, (m+1)*(m+1))
	ws.cholBuf = resize(ws.cholBuf, (m+1)*(m+1))
	ws.blocks = resize(ws.blocks, len(p.Blocks))
	for k, blk := range p.Blocks {
		n := blk.N
		f := blk.compiled()
		bw := &ws.blocks[k]
		bw.n, bw.c, bw.coefs = n, blk.C, f.coefs
		bw.live = f.live[:sort.SearchInts(f.live, m)]
		bw.z, bw.zinv = reshapeSym(bw.z, n), reshapeSym(bw.zinv, n)
		if bw.chol == nil || bw.chol.N != n {
			bw.chol = linalg.NewChol(n)
		}
		wlen := 0
		for _, i := range bw.live {
			wlen += f.coefs[i].scratchLen(n)
		}
		bw.wbuf, bw.w = resize(bw.wbuf, wlen), resize(bw.w, len(bw.live))
		w := bw.wbuf
		for k, i := range bw.live {
			l := f.coefs[i].scratchLen(n)
			bw.w[k], w = w[:l:l], w[l:]
		}
	}
	ws.rows = resize(ws.rows, len(p.Rows))
	for k, r := range p.Rows {
		rw := &ws.rows[k]
		rw.rhs = r.RHS
		rw.idx, rw.val = rw.idx[:0], rw.val[:0]
		for i, a := range r.Coef {
			if num.Nonzero(a) {
				rw.idx = append(rw.idx, i)
				rw.val = append(rw.val, a)
			}
		}
		rw.idx = append(rw.idx, m)
		rw.val = append(rw.val, -1)
	}
}

// reshapeSym returns s at order n, allocating only when s is nil. Its
// entries are left as they were: every user overwrites them.
func reshapeSym(s *linalg.Sym, n int) *linalg.Sym {
	if s == nil {
		return linalg.NewSym(n)
	}
	s.N, s.A = n, resize(s.A, n*n)
	return s
}

// minEigenvalue returns the smallest eigenvalue of s, computed in ws's
// scratch.
func (ws *workspace) minEigenvalue(s *linalg.Sym) float64 {
	ws.eig = resize(ws.eig, s.N*s.N)
	return linalg.MinEigenvalue(s, ws.eig)
}

// Z evaluates C − Σ A_i y_i over the compiled entries into a new matrix.
func (b *Block) Z(y []float64) *linalg.Sym { return b.ZInto(nil, y) }

// ZInto is Z evaluated into dst, reshaped to the block's order
// (allocated only when nil), and returns it.
func (b *Block) ZInto(dst *linalg.Sym, y []float64) *linalg.Sym {
	dst = reshapeSym(dst, b.C.N)
	copy(dst.A, b.C.A)
	f := b.compiled()
	for _, i := range f.live {
		if num.Nonzero(y[i]) {
			subScaled(dst, y[i], f.coefs[i].ents)
		}
	}
	return dst
}

// evalZ sets bw.z = C − Σ A_i y_i + s·I.
func (bw *blockWork) evalZ(y []float64, s float64) {
	copy(bw.z.A, bw.c.A)
	for _, i := range bw.live {
		if num.Nonzero(y[i]) {
			subScaled(bw.z, y[i], bw.coefs[i].ents)
		}
	}
	n := bw.n
	for i := 0; i < n; i++ {
		bw.z.A[i*n+i] += s
	}
}

// factor evaluates Z(y) + s·I and its Cholesky factor; false when it is
// not positive definite.
func (bw *blockWork) factor(y []float64, s float64) bool {
	bw.evalZ(y, s)
	return linalg.CholeskyInto(bw.chol, bw.z) == nil
}

// dot returns aᵀy over the structural variables.
func (rw *rowWork) dot(y []float64) float64 {
	var acc float64
	for k, i := range rw.idx[:len(rw.idx)-1] {
		acc += rw.val[k] * y[i]
	}
	return acc
}

// slack returns rhs − aᵀy + s.
func (rw *rowWork) slack(y []float64, s float64) float64 {
	return rw.rhs - rw.dot(y) + s
}

// innerEntries returns ⟨A, X⟩ for symmetric X, A given by its entries.
func innerEntries(ents []entry, x *linalg.Sym) float64 {
	n := x.N
	var acc float64
	for _, e := range ents {
		t := e.v * x.A[e.r*n+e.c]
		if e.r != e.c {
			t += t
		}
		acc += t
	}
	return acc
}

// quadEntries returns uᵀA u, A given by its entries.
func quadEntries(ents []entry, u []float64) float64 {
	var acc float64
	for _, e := range ents {
		t := e.v * u[e.r] * u[e.c]
		if e.r != e.c {
			t += t
		}
		acc += t
	}
	return acc
}

// dotCols returns Σ_{k∈cols} a[k]·b[k].
func dotCols(cols []int, a, b []float64) float64 {
	var acc float64
	for _, k := range cols {
		acc += a[k] * b[k]
	}
	return acc
}

// fill computes every live coefficient's scratch from bw.zinv: u = Z⁻¹v
// for a rank-one coefficient, the nonzero columns of W = Z⁻¹A otherwise.
func (bw *blockWork) fill() {
	n := bw.n
	zi := bw.zinv.A
	for k, i := range bw.live {
		cf := &bw.coefs[i]
		w := bw.w[k]
		if cf.rankOne {
			for a := range w {
				w[a] = dotCols(cf.cols, zi[a*n:(a+1)*n], cf.v)
			}
			continue
		}
		for a := range w {
			w[a] = 0
		}
		// Column c of W gains A[r][c]·Z⁻¹[:,r], and column r its mirror.
		for _, e := range cf.ents {
			linalg.Axpy(e.v, zi[e.r*n:(e.r+1)*n], w[e.kc*n:(e.kc+1)*n])
			if e.r != e.c {
				linalg.Axpy(e.v, zi[e.c*n:(e.c+1)*n], w[e.kr*n:(e.kr+1)*n])
			}
		}
	}
}

// traceInv returns tr(Z⁻¹A) from A's filled scratch w.
func (bw *blockWork) traceInv(cf *coef, w []float64) float64 {
	if cf.rankOne {
		return cf.sigma * dotCols(cf.cols, cf.v, w)
	}
	var acc float64
	for kb, b := range cf.cols {
		acc += w[kb*bw.n+b]
	}
	return acc
}

// tracePair returns tr(Z⁻¹A_i Z⁻¹A_j) from the filled scratch wi and
// wj, by the formula the pair's structure allows.
func (bw *blockWork) tracePair(ci, cj *coef, wi, wj []float64) float64 {
	switch {
	case ci.rankOne && cj.rankOne:
		t := dotCols(cj.cols, cj.v, wi)
		return ci.sigma * cj.sigma * t * t
	case ci.rankOne:
		return ci.sigma * quadEntries(cj.ents, wi)
	case cj.rankOne:
		return cj.sigma * quadEntries(ci.ents, wj)
	}
	n := bw.n
	var acc float64
	for kb, b := range ci.cols {
		col := wi[kb*n : (kb+1)*n]
		for ka, a := range cj.cols {
			acc += col[a] * wj[ka*n+b]
		}
	}
	return acc
}

// traceInvSq returns tr(Z⁻¹A Z⁻¹) from A's filled scratch w.
func (bw *blockWork) traceInvSq(cf *coef, w []float64) float64 {
	if cf.rankOne {
		return cf.sigma * linalg.Dot(w, w)
	}
	n := bw.n
	var acc float64
	for kb, b := range cf.cols {
		acc += linalg.Dot(w[kb*n:(kb+1)*n], bw.zinv.A[b*n:(b+1)*n])
	}
	return acc
}

// setExt points grad, delta, hess and hchol at order ext.
func (ws *workspace) setExt(ext int) {
	ws.grad, ws.delta = ws.grad[:ext], ws.delta[:ext]
	ws.hess.N, ws.hess.A = ext, ws.hessBuf[:ext*ext]
	ws.hchol.N, ws.hchol.L = ext, ws.cholBuf[:ext*ext]
}

// gradHess evaluates, at a strictly feasible (y,s), the barrier
// objective f(y,s) = bᵀy − Γs + μ[Σ logdet(Z_k+sI) + box/row/s barriers]
// (returned), its gradient (ws.grad) and −Hessian (ws.hess, SPD for
// Cholesky); ok=false when (y,s) is not strictly feasible. The block
// factors and the log sum come from barrierValue at y, unless the
// workspace is already factored there.
func (ws *workspace) gradHess(p *Problem, y []float64, mu, gamma float64, useS bool) (f float64, ok bool) {
	if !ws.factored {
		if _, ok := ws.barrierValue(p, y, mu, gamma, useS); !ok {
			return 0, false
		}
	}
	ws.factored = false
	m := p.M
	ext := m
	if useS {
		ext = m + 1
	}
	ws.setExt(ext)
	grad, hess := ws.grad, ws.hess.A
	for i := range hess {
		hess[i] = 0
	}
	for i := 0; i < m; i++ {
		grad[i] = p.B[i]
		f += p.B[i] * y[i]
	}
	s := 0.0
	if useS {
		// s ≥ 0 barrier and penalty.
		s = y[m]
		f -= gamma * s
		grad[m] = -gamma + mu/s
		hess[m*ext+m] += mu / (s * s)
	}

	// Box barriers.
	for i := 0; i < m; i++ {
		if !math.IsInf(p.Lo[i], -1) {
			d := y[i] - p.Lo[i]
			grad[i] += mu / d
			hess[i*ext+i] += mu / (d * d)
		}
		if !math.IsInf(p.Up[i], 1) {
			d := p.Up[i] - y[i]
			grad[i] -= mu / d
			hess[i*ext+i] += mu / (d * d)
		}
	}
	// Linear row barriers: log(rhs − aᵀy + s); the gradient/Hessian thus
	// also carry s-components (coefficient −1 on s).
	for k := range ws.rows {
		rw := &ws.rows[k]
		slack := rw.slack(y, s)
		nz := len(rw.idx)
		if !useS {
			nz--
		}
		for ka := 0; ka < nz; ka++ {
			i, ai := rw.idx[ka], rw.val[ka]
			grad[i] -= mu * ai / slack
			for kb := 0; kb <= ka; kb++ {
				j := rw.idx[kb]
				v := mu * ai * rw.val[kb] / (slack * slack)
				hess[i*ext+j] += v
				if i != j {
					hess[j*ext+i] += v
				}
			}
		}
	}
	// Block barriers: d/dy_i logdet(Z+sI) = −tr(Zinv A_i); d/ds = tr(Zinv);
	// H_ij = −μ tr(Zinv A_i Zinv A_j), so −H is PSD.
	for k := range ws.blocks {
		bw := &ws.blocks[k]
		bw.chol.InverseInto(bw.zinv)
		bw.fill()
		for ki, i := range bw.live {
			ci, wi := &bw.coefs[i], bw.w[ki]
			grad[i] -= mu * bw.traceInv(ci, wi)
			for kj := ki; kj < len(bw.live); kj++ {
				j := bw.live[kj]
				v := mu * bw.tracePair(ci, &bw.coefs[j], wi, bw.w[kj])
				hess[i*ext+j] += v
				if i != j {
					hess[j*ext+i] += v
				}
			}
			if useS {
				// Cross terms with s: the slack's coefficient matrix is
				// A_s = −I, so H_is = +μ tr(Zinv A_i Zinv) and the negated
				// Hessian entry is −μ tr(Zinv A_i Zinv).
				v := mu * bw.traceInvSq(ci, wi)
				hess[i*ext+m] -= v
				hess[m*ext+i] -= v
			}
		}
		if useS {
			grad[m] += mu * bw.zinv.Trace()
			// s-s entry: tr(Zinv Zinv).
			hess[m*ext+m] += mu * bw.zinv.InnerProd(bw.zinv)
		}
	}
	return f + mu*ws.logs, true
}

// barrierValue evaluates the penalty-barrier objective
// f(y,s) = bᵀy − Γs + μ[Σ logdet(Z_k+sI) + log s + box/row logs],
// leaving every block's chol factored at (y,s) and the log sum in
// ws.logs; ok=false when (y,s) is not strictly feasible.
func (ws *workspace) barrierValue(p *Problem, y []float64, mu, gamma float64, useS bool) (float64, bool) {
	m := p.M
	s := 0.0
	logs := 0.0
	var f float64
	for i := 0; i < m; i++ {
		f += p.B[i] * y[i]
	}
	if useS {
		s = y[m]
		if s < 1e-300 {
			return 0, false
		}
		f -= gamma * s
		logs = math.Log(s)
	}
	for i := 0; i < m; i++ {
		if !math.IsInf(p.Lo[i], -1) {
			d := y[i] - p.Lo[i]
			if d <= 0 {
				return 0, false
			}
			logs += math.Log(d)
		}
		if !math.IsInf(p.Up[i], 1) {
			d := p.Up[i] - y[i]
			if d <= 0 {
				return 0, false
			}
			logs += math.Log(d)
		}
	}
	for k := range ws.rows {
		slack := ws.rows[k].slack(y, s)
		if slack <= 0 {
			return 0, false
		}
		logs += math.Log(slack)
	}
	for k := range ws.blocks {
		bw := &ws.blocks[k]
		if !bw.factor(y, s) {
			return 0, false
		}
		logs += bw.chol.LogDet()
	}
	ws.logs = logs
	return f + mu*logs, true
}

// newtonStep performs one damped Newton iteration on y at the given mu,
// with an Armijo condition on the barrier value so the iterate tracks
// the central path. Returns the Newton decrement (−1 on failure).
func (ws *workspace) newtonStep(p *Problem, y []float64, mu, gamma float64, useS bool) float64 {
	return ws.newtonStepFrom(p, y, mu, gamma, useS, 1)
}

// newtonStepFrom is newtonStep with the line search's first trial at
// step length t0 ≤ 1 instead of the full step. An accepted trial leaves
// every block factored at the new y (ws.factored).
//
// Inside the quadratic region, λ² = dec/μ < ¼, every step length t ≤ 1
// keeps the self-concordant barrier f/μ strictly feasible and passes
// the Armijo test in exact arithmetic. A rejected first trial there
// means the gain sits under the rounding of f, so the step fails
// instead of halving toward 1e-13: that ends the level, or the polish.
//
//ugo:hotpath
func (ws *workspace) newtonStepFrom(p *Problem, y []float64, mu, gamma float64, useS bool, t0 float64) float64 {
	f0, dec, ok := ws.direction(p, y, mu, gamma, useS)
	if !ok {
		return -1
	}
	ext := len(ws.delta)
	cand := ws.cand
	copy(cand, y)
	for t := t0; t > 1e-13; t *= 0.5 {
		for i := 0; i < ext; i++ {
			cand[i] = y[i] + t*ws.delta[i]
		}
		fv, ok := ws.barrierValue(p, cand, mu, gamma, useS)
		if ok && fv >= f0+0.1*t*dec {
			copy(y, cand)
			ws.factored = true
			return dec
		}
		if dec < 0.25*mu {
			return -1
		}
	}
	return -1
}

// direction assembles the Newton system at y and solves it: ws.delta is
// the step, dec the Newton decrement and f0 the barrier value at y.
func (ws *workspace) direction(p *Problem, y []float64, mu, gamma float64, useS bool) (f0, dec float64, ok bool) {
	f0, ok = ws.gradHess(p, y, mu, gamma, useS)
	if !ok {
		return 0, 0, false
	}
	// Newton: maximize ⇒ solve (−H) Δ = grad with −H SPD.
	hess := &ws.hess
	if linalg.CholeskyInto(&ws.hchol, hess) != nil {
		shift := 1e-10 * (1 + hess.MaxAbs())
		for i := 0; i < hess.N; i++ {
			hess.A[i*hess.N+i] += shift
		}
		if linalg.CholeskyInto(&ws.hchol, hess) != nil {
			return 0, 0, false
		}
	}
	ws.hchol.SolveInto(ws.delta, ws.grad)
	for i, d := range ws.delta {
		dec += d * ws.grad[i]
	}
	if dec < 0 {
		return 0, 0, false
	}
	return f0, dec, true
}

// strictlyFeasible checks Z_k(y) + s·I ≻ 0, box interiority and row
// slack; useS=false checks the original system (s treated as 0, y has
// length m).
func (ws *workspace) strictlyFeasible(p *Problem, y []float64, useS bool) bool {
	ws.factored = false
	m := p.M
	s := 0.0
	if useS {
		s = y[m]
		if s < 1e-12 {
			return false
		}
	}
	for i := 0; i < m; i++ {
		if !math.IsInf(p.Lo[i], -1) && y[i] <= p.Lo[i] {
			return false
		}
		if !math.IsInf(p.Up[i], 1) && y[i] >= p.Up[i] {
			return false
		}
	}
	for k := range ws.rows {
		if rw := &ws.rows[k]; rw.dot(y)-s >= rw.rhs {
			return false
		}
	}
	for k := range ws.blocks {
		if !ws.blocks[k].factor(y, s) {
			return false
		}
	}
	return true
}
