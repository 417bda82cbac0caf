// Package sdp implements an interior-point solver for semidefinite
// programs in the dual (linear matrix inequality) form used by SCIP-SDP:
//
//	sup  bᵀy
//	s.t. C_k − Σ_i A_{k,i} y_i ⪰ 0   for every block k,
//	     lo ≤ y ≤ up,   aᵀy ≤ rhs (linear rows),
//
// via a log-det barrier method with damped Newton steps on a long-step μ
// schedule: loose centring between μ-levels, a tangent-length first
// step at each new level, tight centring only at the iterates the
// caller reads (sigma, theta). A level, the final polish included,
// also ends when a step inside the quadratic region (λ² = dec/μ < ¼)
// fails its first trial: there the full step passes the Armijo test in
// exact arithmetic, so the failure is rounding. It stands in
// for the interior-point engines (Mosek) the original SCIP-SDP links
// against. The paper's penalty formulation — which SCIP-SDP uses to
// retain solvability when branching destroys the Slater condition — is
// built in: a slack multiple of the identity is added to every block and
// driven to zero by a large penalty, so the barrier always has a
// strictly feasible starting point.
//
// The Newton system is assembled from the structure of the coefficient
// matrices, the way the production engines build their Schur complement
// (assemble.go). Each Block's A_i are compiled once, by the first Solve
// that sees the Block, into their upper-triangle nonzero entries and the
// columns they touch, and — when A_i = σ·v·vᵀ
// holds to rankOneTol (1e-12, relative to the largest entry; σ = ±1 and
// v are read off the row of the largest diagonal entry) — into the
// factor (σ, v); every linear row into its nonzero support. With
// u_i = Z⁻¹v_i and W_i = Z⁻¹A_i, of which only the nonzero columns are
// ever formed, the Hessian entry tr(Z⁻¹A_iZ⁻¹A_j) is
//
//	σ_iσ_j (v_jᵀu_i)²                          two rank-one matrices,
//	σ_i · u_iᵀA_ju_i over A_j's entries         one rank-one, one general,
//	Σ_{a∈cols_j, b∈cols_i} W_i[a,b]·W_j[b,a]   two general matrices,
//
// the last being the plain tr(W_iW_j) when every column is nonzero. There
// is no separate dense path. Everything a Newton step writes — Z, its
// Cholesky factor and inverse, the u and W arrays, gradient, Hessian and
// its factor, the direction and the line-search candidate — lives in one
// workspace, so a step allocates nothing; the factor of Z that the
// gradient needs also yields the barrier value the line search starts
// from, and the factors and value of the trial the line search accepts
// are the next gradient's. A Solver keeps the workspace and resets it
// for every problem, reusing each buffer whose capacity suffices. The
// compiled form is kept on the Block, published once and then only
// read, so the solves of ParaSolvers that share the Blocks share it; a
// node's fixed variables are folded into C through the parent Block's
// entries, in Blocks the Solver keeps, and the reduced Block takes the
// parent's form over the free variables, so branch and bound compiles
// each Block once per tree and a node re-solve allocates only its
// Result and the barrier iterate.
package sdp

import (
	"math"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/num"
)

// Block is one linear matrix inequality C − Σ A_i y_i ⪰ 0. The first
// Solve or Z that sees a Block compiles A, and every later one reads
// that form, so A must not change once the Block is in use; Blocks may
// be shared by concurrent solves.
type Block struct {
	N int
	C *linalg.Sym
	// A[i] is variable i's coefficient matrix (nil = zero matrix).
	A []*linalg.Sym

	form atomic.Pointer[blockForm] // A compiled, once published
}

// Row is a linear inequality aᵀy ≤ rhs.
type Row struct {
	Coef []float64
	RHS  float64
}

// Problem is a dual-form SDP.
type Problem struct {
	M      int // number of variables
	B      []float64
	Lo, Up []float64
	Blocks []*Block
	Rows   []Row
}

// Status of a solve.
type Status int8

// Solve outcomes.
const (
	Solved Status = iota
	Infeasible
	NumericTrouble
)

// Result of a solve.
type Result struct {
	Status Status
	Y      []float64
	Obj    float64 // bᵀy at the returned (feasible) point
	// UpperBound is Obj plus the estimated duality gap of the final
	// barrier iterate — a bound on the SDP optimum used for pruning.
	UpperBound float64
	// Penalty is the final identity-slack value; ≈0 when the original
	// problem was solved, larger when only the penalty formulation was
	// feasible.
	Penalty float64
	Iters   int
}

// maxNewtonIter is the Newton iteration budget of one solve.
const maxNewtonIter = 6000

// The μ schedule: μ falls by the factor sigma per level. A level opens
// with a tangent-length step (the line search's first trial at
// t = sigma) and ends once the Newton decrement falls below theta·μ.
// Only the iterates the caller reads are centred tightly: the last
// penalty level's, reported when the slack stays, and the μ_F polish.
const (
	sigma = 0.2
	theta = 0.1
)

// Options carries the solver's internal re-solve state; callers pass
// Options{}. The barrier parameters derive from the problem's scale
// (the largest |b_i|, at least 1): penalty weight 10·scale, barrier
// weight from scale down to 1e-7·scale.
type Options struct {
	// phase1 marks an internal feasibility-certification run (objective
	// zero); it must not recurse into another phase-1 run.
	phase1 bool
	// gamma, when positive, overrides the penalty weight: the phase-1
	// rescue keeps the outer solve's.
	gamma float64
	// startY warm-starts the clean (no-slack) barrier from a known
	// strictly feasible point (used by the phase-1 rescue).
	startY []float64
}

// Solver owns everything a solve writes — the barrier workspace, the
// fixing buffers and the reduced problem with its Blocks — and reshapes
// it on every Solve, so the node solves of one branch-and-bound run
// reuse one set of buffers. The zero Solver is ready; a Solver serves
// one goroutine at a time.
type Solver struct {
	ws workspace

	fixed  []bool
	fixVal []float64
	keep   []int
	// red is the problem over the free variables: its B, Lo, Up, Blocks
	// and Rows are backed by the Solver, its Blocks by blocks and forms
	// and its rows' coefficients by rowCoef.
	red     Problem
	blocks  []*Block
	forms   []blockForm
	rowCoef []float64
}

// Solve runs the barrier method on p with a fresh Solver.
func Solve(p *Problem, opt Options) *Result {
	return new(Solver).Solve(p, opt)
}

// Solve runs the barrier method on p. Variables whose box has
// (numerically) collapsed — the way branch and bound fixes integers —
// are eliminated into the constant terms first, which keeps the barrier
// well conditioned. The Result, its Y included, is the caller's: none
// of it aliases the Solver.
func (s *Solver) Solve(p *Problem, opt Options) *Result {
	s.fixed, s.fixVal = resize(s.fixed, p.M), resize(s.fixVal, p.M)
	fixed, fixVal := s.fixed, s.fixVal
	anyFixed := false
	for i := 0; i < p.M; i++ {
		fixed[i] = !math.IsInf(p.Lo[i], -1) && p.Up[i]-p.Lo[i] < 1e-7
		if fixed[i] {
			fixVal[i] = 0.5 * (p.Lo[i] + p.Up[i])
			anyFixed = true
		}
	}
	if !anyFixed {
		if p.M == 0 {
			return s.ws.evalFixed(p)
		}
		s.ws.reset(p)
		return solveFull(p, opt, &s.ws)
	}
	// Build the reduced problem over the free variables.
	keep := s.keep[:0]
	for i := 0; i < p.M; i++ {
		if !fixed[i] {
			keep = append(keep, i)
		}
	}
	s.keep = keep
	red := &s.red
	red.M = len(keep)
	red.B, red.Lo, red.Up = red.B[:0], red.Lo[:0], red.Up[:0]
	var objOffset float64
	for _, i := range keep {
		red.B = append(red.B, p.B[i])
		red.Lo = append(red.Lo, p.Lo[i])
		red.Up = append(red.Up, p.Up[i])
	}
	for i := 0; i < p.M; i++ {
		if fixed[i] {
			objOffset += p.B[i] * fixVal[i]
		}
	}
	for len(s.blocks) < len(p.Blocks) {
		s.blocks = append(s.blocks, new(Block))
	}
	s.forms = resize(s.forms, len(p.Blocks))
	for k, blk := range p.Blocks {
		blk.reducedInto(s.blocks[k], &s.forms[k], keep, fixed, fixVal)
	}
	red.Blocks = s.blocks[:len(p.Blocks)]
	red.Rows = red.Rows[:0]
	s.rowCoef = resize(s.rowCoef, len(p.Rows)*len(keep))
	for ri, r := range p.Rows {
		rhs := r.RHS
		coef := s.rowCoef[ri*len(keep) : (ri+1)*len(keep)]
		for k, i := range keep {
			coef[k] = r.Coef[i]
		}
		for i := 0; i < p.M; i++ {
			if fixed[i] {
				rhs -= r.Coef[i] * fixVal[i]
			}
		}
		// A row with no free support is either trivially true or an
		// infeasibility certificate.
		allZero := true
		for _, v := range coef {
			if num.Nonzero(v) {
				allZero = false
			}
		}
		if allZero {
			if rhs < -1e-9 {
				return &Result{Status: Infeasible}
			}
			continue
		}
		red.Rows = append(red.Rows, Row{Coef: coef, RHS: rhs})
	}
	var r *Result
	if red.M == 0 {
		r = s.ws.evalFixed(red)
	} else {
		s.ws.reset(red)
		r = solveFull(red, opt, &s.ws)
	}
	// Expand back.
	y := make([]float64, p.M)
	for k, i := range keep {
		if k < len(r.Y) {
			y[i] = r.Y[k]
		}
	}
	for i := 0; i < p.M; i++ {
		if fixed[i] {
			y[i] = fixVal[i]
		}
	}
	r.Y = y
	r.Obj += objOffset
	if !math.IsInf(r.UpperBound, 1) {
		r.UpperBound += objOffset
	}
	return r
}

// resize returns buf at length n, keeping its storage — and the
// elements up to its capacity — when the capacity suffices.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

// solveFull runs the barrier method without preprocessing, in the
// workspace compiled from p's blocks and rows.
func solveFull(p *Problem, opt Options, ws *workspace) *Result {
	m := p.M
	scale := 1.0
	for _, bi := range p.B {
		if a := math.Abs(bi); a > scale {
			scale = a
		}
	}
	gamma := opt.gamma
	if gamma <= 0 {
		gamma = 10 * scale
	}
	muInit, muFinal := scale, 1e-7*scale

	// Extended variable vector: [y; s] with s the identity slack.
	y := make([]float64, m+1)
	ws.factored = false // y is set below without a Newton step
	ws.startPoint(p, y)
	warmStarted := false
	if opt.startY != nil && ws.strictlyFeasible(p, opt.startY, false) {
		copy(y[:m], opt.startY)
		y[m] = 0
		warmStarted = true
	}
	res := &Result{Status: NumericTrouble} // finishAt sets Y on every return

	mu := muInit
	iters := 0
	converged := true
	useS := !warmStarted
	// runLevel centres y at mu, to λ² = dec/μ < theta or, when tight,
	// < 1e-9. At the previous level's centre the Newton direction at
	// σμ is ((1−σ)/σ) times the tangent to the central path, so the
	// first step tries t = σ, the tangent step, before halving.
	runLevel := func(mu float64, cap int, tight bool) {
		tol := theta
		if tight {
			tol = 1e-9
		}
		t0 := sigma
		for step := 0; step < cap; step++ {
			iters++
			if iters > maxNewtonIter {
				return
			}
			dec := ws.newtonStepFrom(p, y, mu, gamma, useS, t0)
			if dec < 0 || dec < tol*mu+1e-12 {
				return
			}
			t0 = 1
		}
		if mu < 1e-3*muInit {
			converged = false
		}
	}
	// Phase P: drive the penalty slack down with the extended barrier,
	// trying after every level to drop the slack — the moment the
	// iterate is strictly feasible without it, the numerically hostile
	// penalty dimension is removed for good. Running the deep-μ levels
	// with the slack alive is never attempted: near the optimum both the
	// slack and the binding blocks vanish together and the Newton system
	// loses all precision.
	if useS {
		switchAt := math.Max(muFinal, 1e-4*muInit)
		for ; mu >= switchAt && iters <= maxNewtonIter; mu *= sigma {
			// The last level's iterate is the one finishAt reports when
			// the slack stays.
			runLevel(mu, 400, mu*sigma < switchAt)
			if ws.strictlyFeasible(p, y, false) {
				useS = false
				y[m] = 0
				ws.factored = false
				mu *= sigma
				break
			}
		}
	}
	if !useS {
		// Phase C: clean barrier on the original problem down to μ_final,
		// then polish so the certified bound's residual term vanishes.
		// The polish ends where newtonStep's quadratic-region rule finds
		// only rounding left, or at an (exactly) vanishing decrement.
		for ; mu >= muFinal && iters <= maxNewtonIter; mu *= sigma {
			runLevel(mu, 60, false)
		}
		muF := mu / sigma
		for step := 0; step < 60 && iters <= maxNewtonIter; step++ {
			iters++
			dec := ws.newtonStep(p, y, muF, gamma, useS)
			if dec < 0 || dec < 1e-16*(1+scale) {
				break
			}
		}
		res.Iters = iters
		finishAt(p, ws, res, y, muF)
		res.Penalty = 0
		res.Status = Solved
		return res
	}
	// The slack could not be dropped within phase P.
	res.Iters = iters
	finishAt(p, ws, res, y, mu/sigma)
	res.Status = Solved
	if res.Penalty > 1e-4*(1+math.Abs(res.Obj)/math.Max(1, scale)) && !opt.phase1 {
		// The identity slack would not go to zero: either the problem is
		// infeasible, or the objective pull trapped the penalty phase
		// against the boundary. A phase-1 run (zero objective) settles
		// it: if it reaches a strictly feasible point, re-solve cleanly
		// from there; if its certified upper bound on sup 0 is negative,
		// no feasible point exists.
		q := &Problem{M: p.M, B: make([]float64, p.M), Lo: p.Lo, Up: p.Up, Blocks: p.Blocks, Rows: p.Rows}
		ph := solveFull(q, Options{phase1: true, gamma: gamma}, ws)
		switch {
		case ph.Penalty < 1e-8*(1+scale) && ws.strictlyFeasible(p, ph.Y, false):
			o2 := opt
			o2.phase1 = true // prevent further rescues
			o2.startY = ph.Y
			r2 := solveFull(p, o2, ws)
			r2.Iters += res.Iters + ph.Iters
			return r2
		case ph.UpperBound < -1e-7:
			res.Status = Infeasible
		default:
			if !converged {
				res.Status = NumericTrouble
			}
		}
	}
	return res
}

// startPoint sets the extended iterate [y; s] the barrier starts from:
// the middle of every box and a slack large enough to make every block
// strictly positive and every linear row strictly slack (the slack also
// relaxes rows: aᵀy − s ≤ rhs).
func (ws *workspace) startPoint(p *Problem, y []float64) {
	m := p.M
	for i := 0; i < m; i++ {
		switch {
		case !math.IsInf(p.Lo[i], -1) && !math.IsInf(p.Up[i], 1):
			y[i] = 0.5 * (p.Lo[i] + p.Up[i])
		case !math.IsInf(p.Lo[i], -1):
			y[i] = p.Lo[i] + 1
		case !math.IsInf(p.Up[i], 1):
			y[i] = p.Up[i] - 1
		default:
			y[i] = 0
		}
	}
	s0 := 1.0
	for k := range ws.blocks {
		bw := &ws.blocks[k]
		bw.evalZ(y, 0)
		if need := -ws.minEigenvalue(bw.z) + 1; need > s0 {
			s0 = need
		}
	}
	for k := range ws.rows {
		rw := &ws.rows[k]
		if need := rw.dot(y) - rw.rhs + 1; need > s0 {
			s0 = need
		}
	}
	y[m] = s0
}

// finishAt fills the result from the current iterate. When the barrier
// did not converge to the central path, the duality-gap estimate is not
// a trustworthy bound and +Inf is reported instead (the branch-and-bound
// layer then branches rather than prunes — safe, just slower).
func finishAt(p *Problem, ws *workspace, res *Result, y []float64, mu float64) {
	m := p.M
	res.Y = append([]float64(nil), y[:m]...)
	res.Penalty = y[m]
	var obj float64
	for i := 0; i < m; i++ {
		obj += p.B[i] * y[i]
	}
	res.Obj = obj
	// Certified bound from the barrier's dual multipliers: valid at any
	// iterate (convergence only affects its tightness), see bound.go.
	res.UpperBound = ws.rigorousUpperBound(p, y[:m], y[m], mu)
}
