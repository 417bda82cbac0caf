package sdp

import "math"

// rigorousUpperBound certifies an upper bound on sup{ bᵀy : y feasible
// for the ORIGINAL problem } from the final barrier iterate (y, s) via
// weak duality. The multipliers are the barrier's natural dual point:
//
//	X_k = μ (Z_k + sI)⁻¹ ⪰ 0            (block duals)
//	λ_r = μ / rowslack_r ≥ 0            (row duals)
//	ℓ_i = μ / (y_i − lo_i) ≥ 0          (lower-bound duals)
//	u_i = μ / (up_i − y_i) ≥ 0          (upper-bound duals)
//
// For every original-feasible point ŷ (the s = 0 slice of the penalty
// formulation) and every i define the stationarity residual
//
//	r_i = b_i − Σ_k tr(A_{k,i} X_k) − Σ_r λ_r a_{r,i} − u_i + ℓ_i .
//
// Then bᵀŷ ≤ Σ_k tr(C_k X_k) + Σ_r λ_r rhs_r + Σ_i (u_i·up_i − ℓ_i·lo_i)
//   - Σ_i |r_i|·max(|lo_i|,|up_i|),
//
// because each complementarity product is nonnegative at feasible ŷ and
// the residual term is absorbed over the (finite) box. Exactly on the
// central path every r_i vanishes; off-path iterates still yield a valid
// — just weaker — bound. If some variable with a nonzero residual has an
// infinite bound the certificate degenerates to +Inf (no pruning).
func (ws *workspace) rigorousUpperBound(p *Problem, y []float64, s, mu float64) float64 {
	ws.factored = false
	m := p.M
	resid := ws.resid
	copy(resid, p.B)
	var bound float64

	// Block duals.
	for k := range ws.blocks {
		bw := &ws.blocks[k]
		if !bw.factor(y, s) {
			return math.Inf(1)
		}
		x := bw.zinv
		bw.chol.InverseInto(x)
		x.Scale(mu)
		bound += bw.c.InnerProd(x)
		for _, i := range bw.live {
			resid[i] -= innerEntries(bw.coefs[i].ents, x)
		}
	}
	// Row duals (rows are relaxed by s in the penalty formulation, so
	// the iterate's slack includes +s; the multiplier remains valid for
	// the s = 0 slice with the original right-hand side).
	for k := range ws.rows {
		rw := &ws.rows[k]
		slack := rw.slack(y, s)
		if slack <= 0 {
			return math.Inf(1)
		}
		lam := mu / slack
		bound += lam * rw.rhs
		for k, i := range rw.idx[:len(rw.idx)-1] {
			resid[i] -= lam * rw.val[k]
		}
	}
	// Box duals.
	for i := 0; i < m; i++ {
		if !math.IsInf(p.Lo[i], -1) {
			d := y[i] - p.Lo[i]
			if d <= 0 {
				return math.Inf(1)
			}
			l := mu / d
			bound -= l * p.Lo[i]
			resid[i] += l
		}
		if !math.IsInf(p.Up[i], 1) {
			d := p.Up[i] - y[i]
			if d <= 0 {
				return math.Inf(1)
			}
			u := mu / d
			bound += u * p.Up[i]
			resid[i] -= u
		}
	}
	// Residual absorption over the box.
	for i := 0; i < m; i++ {
		r := math.Abs(resid[i])
		if r < 1e-14 {
			continue
		}
		mi := math.Max(math.Abs(p.Lo[i]), math.Abs(p.Up[i]))
		if math.IsInf(mi, 1) {
			return math.Inf(1)
		}
		bound += r * mi
	}
	// Tiny slack for the floating-point evaluation itself.
	return bound + 1e-9*(1+math.Abs(bound))
}

// minBoxObjective returns min bᵀy over the box — the floor any feasible
// point's objective must reach. A certified upper bound below this value
// proves the original problem infeasible.
func minBoxObjective(p *Problem) float64 {
	var lo float64
	for i := 0; i < p.M; i++ {
		a, b := p.B[i]*p.Lo[i], p.B[i]*p.Up[i]
		if math.IsNaN(a) || math.IsNaN(b) { // 0 · ±Inf
			continue
		}
		lo += math.Min(a, b)
	}
	return lo
}

// evalFixed handles the fully-fixed case (no free variables after
// elimination): feasibility is decided exactly by eigenvalue checks.
func (ws *workspace) evalFixed(p *Problem) *Result {
	y := make([]float64, p.M)
	res := &Result{Status: Solved, Y: y}
	for _, r := range p.Rows {
		if -r.RHS > 1e-9 { // coefficient part is empty in the reduced problem
			res.Status = Infeasible
			return res
		}
	}
	for _, blk := range p.Blocks {
		// Z(0) = C in the reduced problem.
		if ws.minEigenvalue(blk.C) < -1e-8*(1+blk.C.MaxAbs()) {
			res.Status = Infeasible
			return res
		}
	}
	return res
}
