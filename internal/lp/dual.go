package lp

import "math"

// dualSimplex restores primal feasibility from a dual feasible basis.
// This is the re-solve path after cutting planes are added or variable
// bounds are tightened during branch-and-bound: both operations keep the
// previous optimal basis dual feasible while possibly making it primal
// infeasible. Any other basis reaches it through makeDualFeasible, and
// then runs on shifted costs. The leaving row is chosen by dual steepest
// edge (Forrest–Goldfarb): infeasibility² over the weight dse[r] ≈
// ‖e_rᵀB⁻¹‖², which updateDSE carries across every pivot. Reduced
// costs are maintained incrementally (refreshed after refactorizations)
// so an iteration costs one btran of a unit vector, the nonzeros of the
// rows its result touches, O(n + m) of pricing and ratio test, and two
// ftrans against the basis factor: the entering column, and the
// weights' τ = B⁻¹ρ.
//
//ugo:hotpath driver
func (s *Solver) dualSimplex() Status {
	limit := s.maxIters()
	for {
		if s.outOfBudget(limit) {
			return IterLimit
		}
		s.iters++
		if s.pricing == priceStale {
			s.refreshPricing()
		}
		// Leaving variable: dual steepest edge, the basic whose
		// infeasibility² per unit of its weight ‖e_rᵀB⁻¹‖² is largest.
		r := -1
		var best float64
		var below bool
		for i, j := range s.basis {
			v, lower := s.lo[j]-s.xb[i], true
			if u := s.xb[i] - s.up[j]; u > v {
				v, lower = u, false
			}
			if v <= feasTol {
				continue
			}
			if score := v * v / s.dse[i]; score > best {
				best, r, below = score, i, lower
			}
		}
		if r < 0 {
			return Optimal
		}
		alpha := s.alphaRow(r)
		total := s.n + s.m
		enter := -1
		bestRatio := math.Inf(1)
		var bestAlpha float64
		for j := 0; j < total; j++ {
			if s.state[j] == stBasic {
				continue
			}
			aj := alpha[j]
			if math.Abs(aj) < pivotTol {
				continue
			}
			// Admissibility: increasing x_B(r) (below) requires the entering
			// movement direction dir with dir·α < 0; decreasing requires
			// dir·α > 0. Nonbasic at lower moves with dir=+1, at upper with
			// dir=−1, free either way.
			ok := false
			switch s.state[j] {
			case stLower:
				ok = (below && aj < 0) || (!below && aj > 0)
			case stUpper:
				ok = (below && aj > 0) || (!below && aj < 0)
			case stFree:
				ok = true
			}
			if !ok {
				continue
			}
			ratio := math.Abs(s.d[j]) / math.Abs(aj)
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && math.Abs(aj) > math.Abs(bestAlpha)) {
				bestRatio = ratio
				enter = j
				bestAlpha = aj
			}
		}
		if enter < 0 {
			// No entering column can repair the violated basic: up to
			// pivotTol the row proves infeasibility, and Solve returns
			// that as is.
			return Infeasible
		}
		// Step: move entering so that x_B(r) lands exactly on its violated
		// bound.
		var dir float64
		switch s.state[enter] {
		case stLower:
			dir = +1
		case stUpper:
			dir = -1
		default: // free: pick direction that moves x_B(r) the right way
			if below == (bestAlpha < 0) {
				dir = +1
			} else {
				dir = -1
			}
		}
		var target float64
		var leaveState int8
		if below {
			target = s.lo[s.basis[r]]
			leaveState = stLower
		} else {
			target = s.up[s.basis[r]]
			leaveState = stUpper
		}
		// x_B(r)(t) = xb[r] − dir·α·t = target.
		t := (s.xb[r] - target) / (dir * bestAlpha)
		if t < 0 {
			t = 0
		}
		w := s.ftran(enter)
		leave := s.basis[r]
		s.applyStep(enter, dir, t, w)
		newVal := s.nonbasicValue(enter) + dir*t
		s.xb[r] = newVal
		s.updateDSE(r, w)
		if s.pivot(r, enter, w, leaveState) {
			s.computeXB()
		} else {
			s.updatePricing(enter, leave, alpha)
		}
	}
}
