package lp

import (
	"math"

	"repro/internal/num"
)

// enterDir returns the admissible movement direction(s) for a nonbasic
// column under phase-2 pricing: +1 to increase from a lower bound, −1 to
// decrease from an upper bound; free variables move against the sign of
// their reduced cost.
func (s *Solver) enterDir(j int, dj float64, bland bool) (dir float64, ok bool) {
	tol := dualTol
	if bland {
		tol = 1e-12
	}
	switch s.state[j] {
	case stLower:
		if dj < -tol {
			return +1, true
		}
	case stUpper:
		if dj > tol {
			return -1, true
		}
	case stFree:
		if dj < -tol {
			return +1, true
		}
		if dj > tol {
			return -1, true
		}
	}
	return 0, false
}

// primalRatioTest finds the maximum step t for entering column `enter`
// moving in direction dir, with tableau column w = B⁻¹ A_enter. It
// returns the blocking basic row r (−1 for a bound flip of the entering
// variable itself, −2 for unbounded) and the state the leaving variable
// assumes.
func (s *Solver) primalRatioTest(enter int, dir float64, w []float64) (t float64, r int, leaveState int8) {
	t = math.Inf(1)
	r = -2
	// Own bound range limits the step (bound flip).
	if rangeLen := s.up[enter] - s.lo[enter]; !math.IsInf(rangeLen, 1) {
		t = rangeLen
		r = -1
	}
	for i := 0; i < s.m; i++ {
		delta := -dir * w[i] // rate of change of x_B(i) per unit t
		if math.Abs(delta) < pivotTol {
			continue
		}
		bj := s.basis[i]
		var lim float64
		var st int8
		if delta > 0 {
			if math.IsInf(s.up[bj], 1) {
				continue
			}
			lim = (s.up[bj] - s.xb[i]) / delta
			st = stUpper
		} else {
			if math.IsInf(s.lo[bj], -1) {
				continue
			}
			lim = (s.lo[bj] - s.xb[i]) / delta
			st = stLower
		}
		if lim < -1e-12 {
			lim = 0
		}
		if lim < t-1e-12 || (lim < t+1e-12 && r >= 0 && math.Abs(w[i]) > math.Abs(w[r])) {
			t = lim
			r = i
			leaveState = st
		}
	}
	return t, r, leaveState
}

// applyStep moves the entering variable by t·dir and updates basic values.
func (s *Solver) applyStep(enter int, dir, t float64, w []float64) {
	if num.ExactZero(t) { // degenerate step: dictionary values unchanged
		return
	}
	for i := 0; i < s.m; i++ {
		s.xb[i] -= dir * t * w[i]
	}
	_ = enter
}

// primalPhase2 runs the bounded-variable primal simplex from a primal
// feasible basis until optimality or unboundedness.
//
//ugo:hotpath driver
func (s *Solver) primalPhase2() Status {
	limit := s.maxIters()
	noProgress := 0
	for {
		if s.outOfBudget(limit) {
			return IterLimit
		}
		s.iters++
		if s.pricing == priceStale {
			s.refreshPricing()
		}
		bland := noProgress > 2*(s.n+s.m)+200
		enter := -1
		var dir, best float64
		total := s.n + s.m
		for j := 0; j < total; j++ {
			if s.state[j] == stBasic {
				continue
			}
			dj := s.d[j]
			dd, ok := s.enterDir(j, dj, bland)
			if !ok {
				continue
			}
			if bland {
				enter, dir = j, dd
				break
			}
			if v := math.Abs(dj); v > best {
				best = v
				enter, dir = j, dd
			}
		}
		if enter < 0 {
			// Guard against drift in the incremental pricing: optimality
			// counts only on freshly computed reduced costs.
			if s.pricing == priceFresh {
				return Optimal
			}
			s.refreshPricing()
			continue
		}
		w := s.ftran(enter)
		t, r, leaveState := s.primalRatioTest(enter, dir, w)
		switch r {
		case -2:
			return Unbounded
		case -1: // bound flip: basis and duals unchanged
			s.applyStep(enter, dir, t, w)
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
		default:
			alpha := s.alphaRow(r)
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
		if t > 1e-10 {
			noProgress = 0
		} else {
			noProgress++
		}
	}
}
