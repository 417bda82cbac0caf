package lp

import (
	"math"
	"time"

	"repro/internal/num"
)

// Variable states in the simplex dictionary.
const (
	stBasic int8 = iota
	stLower      // nonbasic at lower bound (or pegged at 0 when lo = -Inf, up = +Inf)
	stUpper      // nonbasic at upper bound
	stFree       // nonbasic free variable, value 0
)

const (
	feasTol  = 1e-8 // primal feasibility tolerance
	dualTol  = 1e-8 // dual feasibility (reduced-cost) tolerance
	pivotTol = 1e-9 // minimum admissible pivot magnitude
)

// Solver is a simplex instance over a snapshot of a Problem. It keeps a
// factorized basis across calls so that the cutting-plane loop (AddRow +
// Solve) and branch-and-bound (SetBound + Solve) re-solve with the dual
// simplex instead of starting from scratch.
type Solver struct {
	m, n int // rows, structural columns

	// Computational form: [A | I_slack] x = b, lo ≤ x ≤ up over n+m cols.
	// A is kept twice: by column for ftran and refactor, by row for the
	// products yᵀA.
	cols  [][]colEntry // sparse structural columns
	rows  [][]rowEntry // sparse rows of A, slack excluded
	b     []float64
	c     []float64 // length n+m (slack costs 0)
	lo    []float64
	up    []float64
	sense []Sense

	basis    []int // basis[i] = column basic at position i
	state    []int8
	epoch    int       // DeleteRows calls so far: a Basis from an earlier epoch has other rows
	fac      factor    // sparse factorization of the basis matrix
	xb       []float64 // basic variable values
	hasBasis bool

	// MaxIters bounds a single Solve call; 0 means the default.
	MaxIters int
	// Deadline, when set, ends a Solve still iterating after it with
	// IterLimit. The phases look at the clock every 64 iterations.
	Deadline time.Time

	iters int

	// d caches the reduced costs and y the row duals they were priced
	// with; pricing says how current they are.
	d, y    []float64
	pricing priceState

	// Per-iteration simplex scratch, reused across pivots and re-solves.
	// Every user fully overwrites its buffer before reading it; alphaBuf,
	// ftranBuf and btranBuf are distinct because an iteration holds an
	// alpha row and an ftran column live at the same time, and timesA
	// reads a btran result while it writes the alpha row. posBuf (indexed
	// by basis position) and rowBuf (indexed by row) are the right-hand
	// sides the factor's solves consume.
	alphaBuf []float64
	ftranBuf []float64
	btranBuf []float64
	posBuf   []float64
	rowBuf   []float64
	rowAcc   []float64 // AddRow's per-column accumulator, all zero between calls

	// dse[p] is the dual steepest-edge weight of basis position p, an
	// estimate of ‖e_pᵀB⁻¹‖²: exact for the slack basis, carried across
	// pivots by updateDSE, compacted with the basis by DeleteRows and
	// untouched by refactors. tauBuf holds updateDSE's τ = B⁻¹ρ.
	dse    []float64
	tauBuf []float64

	// shiftCol[k] is a column whose cost makeDualFeasible shifted, and
	// shiftCost[k] its cost before the shift.
	shiftCol  []int
	shiftCost []float64
}

// priceState says how far the cached reduced costs can be trusted.
type priceState int8

const (
	priceStale   priceState = iota // basis or costs changed: recompute before use
	priceUpdated                   // maintained by updatePricing since the last recompute
	priceFresh                     // recomputed for the current basis, no pivot since
)

// grow returns buf resized to n, reallocating only when capacity is
// short, and then with headroom: a cut loop asks for a slightly larger
// size at every re-solve. Contents are unspecified: callers must
// overwrite every entry they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n, n+n/4+16)
	}
	return buf[:n]
}

// timesA computes out_j = yᵀA_j for every column, slacks included
// (out[n+i] = y_i), at the cost of the rows with y_i ≠ 0. Each out_j
// sums its nonzero terms in increasing row order, as the dot product
// with column j would.
//
//ugo:hotpath
func (s *Solver) timesA(y, out []float64) {
	clear(out[:s.n])
	for i, yi := range y[:s.m] {
		if num.ExactZero(yi) {
			continue
		}
		for _, e := range s.rows[i] {
			out[e.col] += yi * e.val
		}
	}
	copy(out[s.n:s.n+s.m], y)
}

// alphaRow computes α_j = (e_rᵀ B⁻¹) A_j for every column (the pivot row
// of the full tableau). The result aliases s.alphaBuf and is valid until
// the next call.
func (s *Solver) alphaRow(r int) []float64 {
	s.btranUnit(r)
	s.alphaBuf = grow(s.alphaBuf, s.n+s.m)
	s.timesA(s.btranBuf, s.alphaBuf)
	return s.alphaBuf
}

// btranUnit computes ρ = e_rᵀB⁻¹, row r of the basis inverse, into
// s.btranBuf.
func (s *Solver) btranUnit(r int) {
	s.posBuf = grow(s.posBuf, s.m)
	clear(s.posBuf)
	s.posBuf[r] = 1
	s.btranBuf = grow(s.btranBuf, s.m)
	s.fac.btran(s.posBuf, s.btranBuf)
}

// dseMin is the floor of a dual steepest-edge weight: the update can
// round a weight down to zero or below, which would make its row win
// every pricing.
const dseMin = 1e-4

// updateDSE carries the dual steepest-edge weights across the pivot
// that makes the column with ftran image w basic at position r. It must
// run before the pivot, with ρ = e_rᵀB⁻¹ in btranBuf: the new weight of
// r is ‖ρ‖²/w_r², and each other position i with w_i ≠ 0 gains
// κ·(κ·‖ρ‖² − 2τ_i), κ = w_i/w_r, where τ = B⁻¹ρ.
//
//ugo:hotpath
func (s *Solver) updateDSE(r int, w []float64) {
	rho := s.btranBuf[:s.m]
	var rr float64
	for _, v := range rho {
		rr += v * v
	}
	s.rowBuf = grow(s.rowBuf, s.m)
	copy(s.rowBuf, rho)
	s.tauBuf = grow(s.tauBuf, s.m)
	s.fac.ftran(s.rowBuf, s.tauBuf)
	wr := w[r]
	for i, wi := range w[:s.m] {
		if i == r || num.ExactZero(wi) {
			continue
		}
		k := wi / wr
		s.dse[i] = max(s.dse[i]+k*(k*rr-2*s.tauBuf[i]), dseMin)
	}
	s.dse[r] = max(rr/(wr*wr), dseMin)
}

// updatePricing applies the standard reduced-cost update after a pivot:
// d'_j = d_j − θ·α_j with θ = d_enter/α_enter. Must be called with the
// pre-pivot alpha row.
func (s *Solver) updatePricing(enter, leave int, alpha []float64) {
	if s.pricing == priceStale {
		return
	}
	s.pricing = priceUpdated
	theta := s.d[enter] / alpha[enter]
	if num.Nonzero(theta) {
		for j := range s.d {
			s.d[j] -= theta * alpha[j]
		}
	}
	s.d[enter] = 0
	s.d[leave] = -theta
}

// refreshPricing recomputes the row duals y = c_Bᵀ B⁻¹ and the reduced
// costs d_j = c_j − yᵀA_j of every column from scratch.
func (s *Solver) refreshPricing() {
	s.posBuf = grow(s.posBuf, s.m)
	for i, j := range s.basis {
		s.posBuf[i] = s.c[j]
	}
	s.y = grow(s.y, s.m)
	s.fac.btran(s.posBuf, s.y)
	s.d = grow(s.d, s.n+s.m)
	d := s.d
	s.timesA(s.y, d)
	for j, yaj := range d {
		if s.state[j] == stBasic {
			d[j] = 0
		} else {
			d[j] = s.c[j] - yaj
		}
	}
	s.pricing = priceFresh
}

// NewSolver snapshots prob into a solver.
func NewSolver(prob *Problem) *Solver {
	n := prob.NumVars()
	m := prob.NumRows()
	s := &Solver{m: 0, n: n}
	s.c = append([]float64(nil), prob.Obj...)
	s.lo = append([]float64(nil), prob.Lo...)
	s.up = append([]float64(nil), prob.Up...)
	s.cols = make([][]colEntry, n)
	s.state = make([]int8, n, n+m) // one per column; AddRow appends the slacks'
	s.rowAcc = make([]float64, n)
	for i := 0; i < m; i++ {
		r := prob.Rows[i]
		s.AddRow(r.Sense, r.RHS, r.Coefs)
	}
	return s
}

// NumRows returns the current number of rows (including added cuts).
func (s *Solver) NumRows() int { return s.m }

// NumVars returns the number of structural variables.
func (s *Solver) NumVars() int { return s.n }

// slackBounds returns the bounds of the slack for a given row sense,
// using the convention aᵀx + slack = b.
func slackBounds(sense Sense) (lo, up float64) {
	switch sense {
	case LE:
		return 0, Inf
	case GE:
		return math.Inf(-1), 0
	default: // EQ
		return 0, 0
	}
}

// AddRow appends a row aᵀx {≤,=,≥} rhs. The new slack variable enters the
// basis, which preserves dual feasibility of an optimal basis, so the next
// Solve can proceed with the dual simplex.
func (s *Solver) AddRow(sense Sense, rhs float64, coefs []Nonzero) int {
	row := s.m
	s.m++
	s.b = append(s.b, rhs)
	s.sense = append(s.sense, sense)
	// Extend structural columns and the row copy with the new row's
	// coefficients, summing duplicates in rowAcc; the second pass takes
	// each sum at the column's first occurrence and zeroes it, which skips
	// the later ones.
	for _, nz := range coefs {
		s.rowAcc[nz.Col] += nz.Val
	}
	entries := make([]rowEntry, 0, len(coefs))
	for _, nz := range coefs {
		if v := s.rowAcc[nz.Col]; num.Nonzero(v) {
			s.cols[nz.Col] = append(s.cols[nz.Col], colEntry{row: row, val: v})
			entries = append(entries, rowEntry{col: nz.Col, val: v})
			s.rowAcc[nz.Col] = 0
		}
	}
	s.rows = append(s.rows, entries)
	// Slack column: previous slacks gain a zero entry implicitly because
	// slack columns are unit vectors; we track slacks positionally (slack
	// of row i is column n+i) and synthesize the column on demand.
	slo, sup := slackBounds(sense)
	s.lo = append(s.lo, slo)
	s.up = append(s.up, sup)
	s.c = append(s.c, 0)
	s.state = append(s.state, stBasic)
	s.pricing = priceStale
	if s.hasBasis {
		// The new slack is basic, with dual steepest-edge weight 1 (exact
		// only when no basic structural has a coefficient in the row). The
		// factor is now one row short, which the next Solve notices and
		// answers with one rebuild for however many rows were added.
		s.basis = append(s.basis, s.n+s.m-1)
		s.xb = append(s.xb, 0)
		s.dse = append(s.dse, 1)
	}
	return row
}

// SetBound updates the bounds of a structural variable. Nonbasic variables
// pegged to a moved bound keep their state; the next Solve repairs any
// primal infeasibility with the dual simplex.
func (s *Solver) SetBound(j int, lo, up float64) {
	s.lo[j] = lo
	s.up[j] = up
	if s.hasBasis {
		s.peg(j)
	}
}

// Bounds returns the current bounds of structural variable j.
func (s *Solver) Bounds(j int) (lo, up float64) { return s.lo[j], s.up[j] }

// SetRowEnabled toggles row i: a disabled row's slack becomes free, so
// the row can never bind. This implements locally-valid cutting planes in
// branch and bound: cuts separated in a subtree are enabled only while a
// node of that subtree is active.
func (s *Solver) SetRowEnabled(i int, enabled bool) {
	j := s.n + i
	if enabled {
		slo, sup := slackBounds(s.sense[i])
		s.lo[j], s.up[j] = slo, sup
		if s.hasBasis && s.state[j] != stBasic {
			// Re-peg the slack to an existing bound.
			if math.IsInf(slo, -1) && !math.IsInf(sup, 1) {
				s.state[j] = stUpper
			} else {
				s.state[j] = stLower
			}
		}
	} else {
		s.lo[j], s.up[j] = math.Inf(-1), Inf
		if s.hasBasis && s.state[j] != stBasic {
			s.state[j] = stFree
		}
	}
}

// RowEnabled reports whether row i is enabled.
func (s *Solver) RowEnabled(i int) bool {
	j := s.n + i
	return !(math.IsInf(s.lo[j], -1) && math.IsInf(s.up[j], 1))
}

// DeleteRows removes every row i with del[i] set, together with its
// slack column, and keeps the basis. A deleted row whose slack is
// nonbasic first has that slack pivoted into the basis, at the position
// with the largest |(B⁻¹eᵢ)ᵣ| that does not hold another deleted slack;
// the column leaving there goes to its nearer bound. With every deleted
// slack basic, dropping those rows and positions leaves a basis of the
// remaining rows, which is refactored once. del has one entry per row;
// rows after a deleted one move down, and the next Solve starts from
// the kept basis.
//
//ugo:coldpath once per dispatched subproblem, when a ParaSolver drops its local cuts
func (s *Solver) DeleteRows(del []bool) {
	if s.hasBasis {
		if s.fac.m != s.m {
			s.refactor()
		}
		s.computeXB()
		for i, d := range del {
			if !d || s.state[s.n+i] == stBasic {
				continue
			}
			s.pivotInSlack(i, del)
		}
	}
	// Compact rows and slack columns; newRow maps an old row to its new
	// index, −1 when deleted.
	newRow := make([]int, s.m)
	k := 0
	for i := 0; i < s.m; i++ {
		if del[i] {
			newRow[i] = -1
			continue
		}
		newRow[i] = k
		s.rows[k], s.b[k], s.sense[k] = s.rows[i], s.b[i], s.sense[i]
		j, jk := s.n+i, s.n+k
		s.lo[jk], s.up[jk], s.c[jk], s.state[jk] = s.lo[j], s.up[j], s.c[j], s.state[j]
		k++
	}
	clear(s.rows[k:])
	s.rows, s.b, s.sense = s.rows[:k], s.b[:k], s.sense[:k]
	s.lo, s.up, s.c, s.state = s.lo[:s.n+k], s.up[:s.n+k], s.c[:s.n+k], s.state[:s.n+k]
	for j, col := range s.cols {
		kept := col[:0]
		for _, e := range col {
			if r := newRow[e.row]; r >= 0 {
				kept = append(kept, colEntry{row: r, val: e.val})
			}
		}
		s.cols[j] = kept
	}
	if s.hasBasis {
		p := 0
		for q, j := range s.basis {
			if j >= s.n {
				if newRow[j-s.n] < 0 {
					continue
				}
				j = s.n + newRow[j-s.n]
			}
			s.basis[p], s.dse[p] = j, s.dse[q]
			p++
		}
		s.basis, s.xb, s.dse = s.basis[:p], s.xb[:p], s.dse[:p]
	}
	s.m = k
	s.epoch++
	s.pricing = priceStale
	if s.hasBasis {
		s.refactor()
	}
}

// pivotInSlack makes the nonbasic slack of row i basic in place of the
// column at the position with the largest |(B⁻¹eᵢ)ᵣ| among those that
// hold no slack of a row marked in del. The leaving column goes to its
// nearer bound and the basic values follow the step.
func (s *Solver) pivotInSlack(i int, del []bool) {
	enter := s.n + i
	w := s.ftran(enter)
	r := -1
	for p, j := range s.basis {
		if j >= s.n && del[j-s.n] {
			continue
		}
		if r < 0 || math.Abs(w[p]) > math.Abs(w[r]) {
			r = p
		}
	}
	leave := s.basis[r]
	v, leaveState := s.nearerBound(leave, s.xb[r])
	// x_B(t) = xb − t·w with the slack moving up by t from its bound.
	t := (s.xb[r] - v) / w[r]
	s.applyStep(enter, 1, t, w)
	s.xb[r] = s.nonbasicValue(enter) + t
	s.btranUnit(r)
	s.updateDSE(r, w)
	if s.pivot(r, enter, w, leaveState) {
		s.computeXB()
	}
}

// nearerBound returns the bound of column j nearer to x, and the
// nonbasic state that pegs j there: 0 and stFree for a free column.
func (s *Solver) nearerBound(j int, x float64) (float64, int8) {
	lo, up := s.lo[j], s.up[j]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(up, 1):
		return 0, stFree
	case math.IsInf(up, 1) || !math.IsInf(lo, -1) && x-lo <= up-x:
		return lo, stLower
	default:
		return up, stUpper
	}
}

// SetObj updates an objective coefficient. An optimal basis stays primal
// feasible, so the next Solve runs primal phase 2 from it.
func (s *Solver) SetObj(j int, c float64) {
	s.c[j] = c
	s.pricing = priceStale
}

// colEntry is one nonzero of a sparse structural column.
type colEntry struct {
	row int
	val float64
}

// rowEntry is one nonzero of a sparse row of A.
type rowEntry struct {
	col int
	val float64
}

// ftran computes w = B⁻¹ A_j. The result aliases s.ftranBuf and is
// valid until the next call.
func (s *Solver) ftran(j int) []float64 {
	s.rowBuf = grow(s.rowBuf, s.m)
	a := s.rowBuf
	clear(a)
	if j < s.n {
		for _, e := range s.cols[j] {
			a[e.row] = e.val
		}
	} else {
		a[j-s.n] = 1
	}
	s.ftranBuf = grow(s.ftranBuf, s.m)
	s.fac.ftran(a, s.ftranBuf)
	return s.ftranBuf
}

// nonbasicValue returns the current value of nonbasic column j.
func (s *Solver) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case stLower:
		if math.IsInf(s.lo[j], -1) {
			return 0
		}
		return s.lo[j]
	case stUpper:
		if math.IsInf(s.up[j], 1) {
			return 0
		}
		return s.up[j]
	default:
		return 0
	}
}

// computeXB recomputes the basic variable values from scratch:
// x_B = B⁻¹ (b − N x_N).
func (s *Solver) computeXB() {
	s.rowBuf = grow(s.rowBuf, s.m)
	rhs := s.rowBuf
	copy(rhs, s.b)
	total := s.n + s.m
	for j := 0; j < total; j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if num.ExactZero(v) {
			continue
		}
		if j < s.n {
			for _, e := range s.cols[j] {
				rhs[e.row] -= e.val * v
			}
		} else {
			rhs[j-s.n] -= v
		}
	}
	s.fac.ftran(rhs, s.xb)
}

// resetSlackBasis installs the all-slack basis.
//
//ugo:coldpath first-solve basis install and numerical recovery, not steady state
func (s *Solver) resetSlackBasis() {
	s.basis = make([]int, s.m)
	s.xb = make([]float64, s.m)
	s.dse = make([]float64, s.m)
	total := s.n + s.m
	for j := 0; j < total; j++ {
		switch {
		case j >= s.n: // slack, basic
			s.state[j] = stBasic
		case !math.IsInf(s.lo[j], -1):
			s.state[j] = stLower
		case !math.IsInf(s.up[j], 1):
			s.state[j] = stUpper
		default:
			s.state[j] = stFree
		}
	}
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.n + i
		s.dse[i] = 1 // B = I: every row of B⁻¹ is a unit vector
	}
	s.hasBasis = true
	s.pricing = priceStale
	s.fac.refactor(s.basis, s.n, s.cols) // the identity: every column peels
}

// refactor rebuilds the factor from the basis columns, dropping the eta
// file. A singular basis cannot be factored: the solver then falls back
// to the all-slack basis, from which Solve's phases recover. Either way
// the caller recomputes the basic values.
func (s *Solver) refactor() {
	s.pricing = priceStale
	if !s.fac.refactor(s.basis, s.n, s.cols) {
		s.resetSlackBasis()
	}
}

// pivot updates the basis: column enter replaces the basic variable at
// position r; w must be B⁻¹ A_enter. leaveState is the state the leaving
// variable assumes. It reports whether the factor was rebuilt, in which
// case the basic values and reduced costs must be recomputed.
func (s *Solver) pivot(r, enter int, w []float64, leaveState int8) bool {
	leave := s.basis[r]
	s.state[leave] = leaveState
	s.state[enter] = stBasic
	s.basis[r] = enter
	s.fac.update(r, w)
	if len(s.fac.epos) < refactorEtas {
		return false
	}
	s.refactor()
	return true
}

// primalInfeasibility returns the total bound violation of the basic
// variables.
func (s *Solver) primalInfeasibility() float64 {
	var inf float64
	for i, j := range s.basis {
		if v := s.xb[i] - s.up[j]; v > feasTol {
			inf += v
		}
		if v := s.lo[j] - s.xb[i]; v > feasTol {
			inf += v
		}
	}
	return inf
}

func (s *Solver) maxIters() int {
	if s.MaxIters > 0 {
		return s.MaxIters
	}
	return 20000 + 40*(s.n+s.m)
}

// outOfBudget reports whether a phase loop must stop with IterLimit: it
// has spent limit iterations, or it is at a multiple of 64 and past the
// Deadline.
func (s *Solver) outOfBudget(limit int) bool {
	return s.iters >= limit ||
		s.iters%64 == 0 && !s.Deadline.IsZero() && time.Now().After(s.Deadline)
}

// Solve optimizes from the current basis (or from the all-slack basis on
// the first call). A primal feasible basis goes straight to primal phase
// 2. Any other starts the dual simplex: makeDualFeasible first repairs
// the reduced costs with bound flips and cost shifts, the dual simplex
// then reaches a primal feasible basis or proves infeasibility, and
// primal phase 2 finishes on the true costs.
func (s *Solver) Solve() *Solution {
	if !s.hasBasis || len(s.basis) != s.m {
		s.resetSlackBasis()
	} else if s.fac.m != s.m {
		s.refactor()
	}
	s.iters = 0
	s.computeXB()
	if s.primalInfeasibility() > feasTol {
		if s.pricing == priceStale {
			s.refreshPricing()
		}
		s.makeDualFeasible()
		st := s.dualSimplex()
		s.unshiftCosts()
		// The dual's Infeasible is a Farkas proof: it never reads a cost,
		// so the shifts cannot have caused it.
		if st != Optimal {
			return s.finish(st)
		}
	}
	return s.finish(s.primalPhase2())
}

// makeDualFeasible makes the current basis dual feasible, so that any
// basis can start the dual simplex. A nonbasic column whose reduced cost
// has the wrong sign moves to its other bound when both are finite; any
// other has its cost shifted by −dⱼ, which zeroes its reduced cost and
// leaves the row duals as they are. Flips move the basic values, which
// are then recomputed. The shifts are recorded in shiftCol/shiftCost for
// unshiftCosts. On a dual feasible basis it changes nothing.
func (s *Solver) makeDualFeasible() {
	s.shiftCol, s.shiftCost = s.shiftCol[:0], s.shiftCost[:0]
	flipped := false
	for j, dj := range s.d[:s.n+s.m] {
		switch s.state[j] {
		case stLower:
			if dj >= -dualTol {
				continue
			}
		case stUpper:
			if dj <= dualTol {
				continue
			}
		case stFree:
			if math.Abs(dj) <= dualTol {
				continue
			}
		default:
			continue
		}
		if !math.IsInf(s.lo[j], -1) && !math.IsInf(s.up[j], 1) {
			if dj > 0 {
				s.state[j] = stLower
			} else {
				s.state[j] = stUpper
			}
			flipped = true
			continue
		}
		s.shiftCol = append(s.shiftCol, j)
		s.shiftCost = append(s.shiftCost, s.c[j])
		s.c[j] -= dj
		s.d[j] = 0
	}
	if flipped {
		s.computeXB()
	}
}

// unshiftCosts restores the costs makeDualFeasible shifted; the reduced
// costs are then stale.
func (s *Solver) unshiftCosts() {
	if len(s.shiftCol) == 0 {
		return
	}
	for k, j := range s.shiftCol {
		s.c[j] = s.shiftCost[k]
	}
	s.pricing = priceStale
}

// finish assembles a Solution from the current state. The Solution and
// its slices are freshly allocated: ownership transfers to the caller,
// which may hold them across later re-solves.
//
//ugo:coldpath builds the returned Solution once per solve; the caller owns it
func (s *Solver) finish(st Status) *Solution {
	sol := &Solution{Status: st, Iters: s.iters}
	if st != Optimal {
		return sol
	}
	// Optimal comes only from primalPhase2, which returns on fresh pricing:
	// s.d and s.y are those of the final basis. One backing array serves
	// the three result vectors; the capacity limits keep them apart.
	buf := make([]float64, 2*s.n+s.m)
	x := buf[:s.n:s.n]
	for j := range x {
		if s.state[j] != stBasic {
			x[j] = s.nonbasicValue(j)
		}
	}
	for i, j := range s.basis {
		if j < s.n {
			x[j] = s.xb[i]
		}
	}
	sol.X = x
	var obj float64
	for j := 0; j < s.n; j++ {
		obj += s.c[j] * x[j]
	}
	sol.Obj = obj
	sol.Duals = buf[s.n : s.n+s.m : s.n+s.m]
	copy(sol.Duals, s.y)
	sol.RedCosts = buf[s.n+s.m:]
	copy(sol.RedCosts, s.d)
	return sol
}
