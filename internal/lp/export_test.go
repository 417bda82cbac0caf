package lp

import "math"

// Hooks for the external tests (package lp_test), which may import the
// Steiner and MISDP packages this package must not.

// BasicCols returns the column basic at each position.
func (s *Solver) BasicCols() []int { return s.basis }

// ForceBasis installs basis without factoring it: every other column goes
// nonbasic at a finite bound, and the factor is marked out of date so
// that the next Solve rebuilds it.
func (s *Solver) ForceBasis(basis []int) {
	s.resetSlackBasis()
	for j := s.n; j < s.n+s.m; j++ {
		if s.state[j] = stLower; math.IsInf(s.lo[j], -1) {
			s.state[j] = stUpper
		}
	}
	copy(s.basis, basis)
	for _, j := range basis {
		s.state[j] = stBasic
	}
	s.fac.m = -1
}

// Refactor rebuilds the factor of the current basis and reports whether
// the basis was nonsingular.
func (s *Solver) Refactor() bool { return s.fac.refactor(s.basis, s.n, s.cols) }

// Ftran solves B x = a (a by row, x by position) without touching a.
func (s *Solver) Ftran(a []float64) []float64 {
	x := make([]float64, s.m)
	s.fac.ftran(append([]float64(nil), a...), x)
	return x
}

// Btran solves yᵀB = vᵀ (v by position, y by row) without touching v.
func (s *Solver) Btran(v []float64) []float64 {
	y := make([]float64, s.m)
	s.fac.btran(append([]float64(nil), v...), y)
	return y
}

// Replace makes column enter basic at the position where its ftran image
// is largest, through the same pivot the simplex loops use, and returns
// that position and whether the factor was rebuilt on the way.
func (s *Solver) Replace(enter int) (r int, refactored bool) {
	w := s.ftran(enter)
	r = largest(w)
	return r, s.pivot(r, enter, w, stLower)
}

// largest returns the index of the entry of w largest in magnitude.
func largest(w []float64) (r int) {
	for i := range w {
		if math.Abs(w[i]) > math.Abs(w[r]) {
			r = i
		}
	}
	return r
}

// FactorShape returns the order of the factor, the size of its nucleus
// and the number of eta columns stacked on it.
func (s *Solver) FactorShape() (m, nucleus, etas int) {
	return s.fac.m, s.fac.m - s.fac.npeel, len(s.fac.epos)
}
