package lp

import (
	"fmt"
	"testing"

	"repro/internal/num"
)

// The kernels as they stood before the row copy of A and the dense eta
// file: ftran and btran over a sparse eta file (index/value pairs of the
// nonzeros of each eta column), and yᵀA as one dot product per column.
// They are the oracles of the kernels that replaced them, which must
// return equal results under ==: both add the same nonzero terms in the
// same order, and differ only in the exact zeros they skip.

// sparseEtas returns the eta file in the old layout: the nonzeros of eta
// e, in increasing position, at eidx/eval[ebeg[e]:ebeg[e+1]].
func (f *factor) sparseEtas() (ebeg, eidx []int, eval []float64) {
	ebeg = []int{0}
	for e := range f.epos {
		for i, v := range f.eta[e*f.m : (e+1)*f.m] {
			if num.Nonzero(v) {
				eidx = append(eidx, i)
				eval = append(eval, v)
			}
		}
		ebeg = append(ebeg, len(eidx))
	}
	return ebeg, eidx, eval
}

// ftranSparseEta is ftran with the old eta phase.
func (f *factor) ftranSparseEta(a, x []float64) {
	ebeg, eidx, eval := f.sparseEtas()
	for t := f.npeel; t < f.m; t++ {
		v := a[f.prow[t]]
		if num.ExactZero(v) {
			continue
		}
		for k := f.lbeg[t-f.npeel]; k < f.lbeg[t-f.npeel+1]; k++ {
			a[f.lidx[k]] -= f.lval[k] * v
		}
	}
	for t := f.m - 1; t >= 0; t-- {
		v := a[f.prow[t]]
		if num.ExactZero(v) {
			x[f.pcol[t]] = 0
			continue
		}
		v /= f.udiag[t]
		x[f.pcol[t]] = v
		for k := f.ubeg[t]; k < f.ubeg[t+1]; k++ {
			a[f.uidx[k]] -= f.uval[k] * v
		}
	}
	for e, r := range f.epos {
		v := x[r]
		if num.ExactZero(v) {
			continue
		}
		v /= f.epiv[e]
		x[r] = v
		for k := ebeg[e]; k < ebeg[e+1]; k++ {
			x[eidx[k]] -= eval[k] * v
		}
	}
}

// btranSparseEta is btran with the old eta phase: each eta's dot product
// runs over that eta's nonzeros.
func (f *factor) btranSparseEta(v, y []float64) {
	ebeg, eidx, eval := f.sparseEtas()
	for e := len(f.epos) - 1; e >= 0; e-- {
		r := f.epos[e]
		acc := v[r]
		for k := ebeg[e]; k < ebeg[e+1]; k++ {
			acc -= eval[k] * v[eidx[k]]
		}
		v[r] = acc / f.epiv[e]
	}
	for t := 0; t < f.m; t++ {
		acc := v[f.pcol[t]]
		for k := f.ubeg[t]; k < f.ubeg[t+1]; k++ {
			acc -= f.uval[k] * y[f.uidx[k]]
		}
		y[f.prow[t]] = acc / f.udiag[t]
	}
	for t := f.m - 1; t >= f.npeel; t-- {
		acc := y[f.prow[t]]
		for k := f.lbeg[t-f.npeel]; k < f.lbeg[t-f.npeel+1]; k++ {
			acc -= f.lval[k] * y[f.lidx[k]]
		}
		y[f.prow[t]] = acc
	}
}

// timesAByColumn is yᵀA_j as a dot product with every column.
func (s *Solver) timesAByColumn(y []float64) []float64 {
	out := make([]float64, s.n+s.m)
	for j := 0; j < s.n; j++ {
		var acc float64
		for _, e := range s.cols[j] {
			acc += y[e.row] * e.val
		}
		out[j] = acc
	}
	copy(out[s.n:], y)
	return out
}

// firstDiff describes the first index where got and want are not equal
// under ==, or returns "".
func firstDiff(what string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: length %d, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if !num.ExactEq(got[i], want[i]) {
			return fmt.Sprintf("%s: entry %d is %v, oracle %v", what, i, got[i], want[i])
		}
	}
	return ""
}

// KernelDiff runs ftran and btran of rhs, yᵀA of that btran result, the
// pivot row of every position and a pricing refresh on the current factor
// beside their oracles, and describes the first result that differs, or
// returns "".
func (s *Solver) KernelDiff(rhs []float64) string {
	f := &s.fac
	m := s.m
	x, xo := make([]float64, m), make([]float64, m)
	f.ftran(append([]float64(nil), rhs...), x)
	f.ftranSparseEta(append([]float64(nil), rhs...), xo)
	if d := firstDiff("ftran", x, xo); d != "" {
		return d
	}
	y, yo := make([]float64, m), make([]float64, m)
	f.btran(append([]float64(nil), rhs...), y)
	f.btranSparseEta(append([]float64(nil), rhs...), yo)
	if d := firstDiff("btran", y, yo); d != "" {
		return d
	}
	ya := make([]float64, s.n+m)
	s.timesA(y, ya)
	if d := firstDiff("timesA", ya, s.timesAByColumn(yo)); d != "" {
		return d
	}
	for r := 0; r < m; r++ {
		unit := make([]float64, m)
		unit[r] = 1
		er := make([]float64, m)
		f.btranSparseEta(unit, er)
		want := s.timesAByColumn(er)
		if d := firstDiff(fmt.Sprintf("pivot row %d", r), s.alphaRow(r), want); d != "" {
			return d
		}
	}
	cb := make([]float64, m)
	for i, j := range s.basis {
		cb[i] = s.c[j]
	}
	yc := make([]float64, m)
	f.btranSparseEta(cb, yc)
	want := s.timesAByColumn(yc)
	for j := range want {
		if s.state[j] == stBasic {
			want[j] = 0
		} else {
			want[j] = s.c[j] - want[j]
		}
	}
	s.refreshPricing()
	if d := firstDiff("duals", s.y, yc); d != "" {
		return d
	}
	return firstDiff("reduced costs", s.d, want)
}

// A btran support position whose value cancels to exactly zero and later
// turns nonzero again must stay listed once: listing it twice would count
// its term twice in every eta after that. Three etas on the identity
// basis of order 3, applied by btran last to first to v = (1, 1, 0):
// eta 2 (pivot 0, w = (1, 1, 0)) cancels v_0 to (1 − 1)/1 = 0, eta 1
// (pivot 0, w = (2, 3, 0)) revives it as (0 − 3)/2 = −1.5, and eta 0
// (pivot 2, w = (5, 0, 1)) reads it: v_2 = (0 − 5·(−1.5))/1 = 7.5.
func TestBtranSupportReentersAfterCancelling(t *testing.T) {
	p := NewProblem()
	for i := 0; i < 3; i++ {
		p.AddRow(LE, 1, nil)
	}
	s := NewSolver(p)
	s.resetSlackBasis()
	f := &s.fac
	f.update(2, []float64{5, 0, 1})
	f.update(0, []float64{2, 3, 0})
	f.update(0, []float64{1, 1, 0})
	v := []float64{1, 1, 0}
	y := make([]float64, 3)
	f.btran(append([]float64(nil), v...), y)
	if d := firstDiff("btran", y, []float64{-1.5, 1, 7.5}); d != "" {
		t.Fatal(d)
	}
	yo := make([]float64, 3)
	f.btranSparseEta(v, yo)
	if d := firstDiff("btran", y, yo); d != "" {
		t.Fatal(d)
	}
}
