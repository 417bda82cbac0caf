package lp

import (
	"math"
	"slices"

	"repro/internal/num"
)

const (
	// luThreshold is the threshold-partial-pivoting factor of the nucleus
	// LU: a row may pivot when its entry is at least this share of the
	// column's largest, and among those the sparsest row wins.
	luThreshold = 0.1
	// singularTol is the pivot magnitude below which the basis counts as
	// singular.
	singularTol = 1e-11
	// refactorEtas is the one refactor trigger: the factor is rebuilt once
	// this many basis changes have been stacked on it as eta columns.
	refactorEtas = 32
)

// factor is the sparse factorization of the basis matrix B, whose column
// p is the column of the variable basic at position p and whose rows are
// the constraint rows.
//
// A refactor first peels column singletons: a column with one entry left
// among the rows not yet pivoted takes that row as its pivot and goes
// into the triangular factor U as it stands, with no arithmetic. Slack
// columns are singletons from the start and structural columns become
// singletons as rows leave, so what remains — the nucleus — is no larger
// than the number of basic structurals. The nucleus is LU-factored column
// by column (left-looking) in order of ascending column count, choosing
// in each column the sparsest row within luThreshold of the largest
// entry. In pivot order the basis then reads
//
//	[ U11 U12 ]   [ I  0 ] [ U11 U12 ]
//	[  0   N  ] = [ 0  L ] [  0  U22 ]
//
// Basis changes are stacked on top in product form: replacing the column
// at position r by one whose ftran image is w multiplies B from the
// right by the identity with column r replaced by w, and that eta column
// is all that is stored, densely: the etas of the cut LPs are 54–99 %
// full, so m values take less room than index/value pairs. btran walks
// each eta over the support of its running vector instead, which for a
// pivot row starts as one position. All arenas are reused across
// refactors.
type factor struct {
	m int // order at the last refactor; the Solver's m runs ahead of it after AddRow

	// Pivot step t eliminates constraint row prow[t] with the column at
	// basis position pcol[t]. Steps [0,npeel) are the peeled singletons,
	// steps [npeel,m) the nucleus.
	prow, pcol []int
	npeel      int

	// U by pivot step: the off-diagonal entries of step t sit in rows
	// pivoted earlier, at uidx/uval[ubeg[t]:ubeg[t+1]]; udiag[t] is the pivot.
	ubeg, uidx []int
	uval       []float64
	udiag      []float64

	// L by nucleus step: the multipliers of step npeel+k sit in rows
	// pivoted later, at lidx/lval[lbeg[k]:lbeg[k+1]].
	lbeg, lidx []int
	lval       []float64

	// Eta file: update e replaced position epos[e]; epiv[e] is w[epos[e]]
	// and eta[e·m:(e+1)·m] is w with a zero at epos[e]. supp is btran's
	// sorted list of the positions its running vector may be nonzero at.
	eta  []float64
	epos []int
	epiv []float64
	supp []int

	// Refactor scratch: B by column (bbeg/bidx/bval) and its pattern by
	// row (rbeg/rpos), the count of unpivoted rows per column, the pivot
	// step of each row and column (−1 while unpivoted), the peel queue,
	// the nucleus column order, and a dense work column with its touched
	// list.
	bbeg, bidx   []int
	bval         []float64
	rbeg, rpos   []int
	cnt          []int
	rstep, cstep []int
	queue, nuc   []int
	work         []float64
	mark         []bool
	touched      []int
}

// refactor rebuilds the factor for the given basis over the structural
// columns cols (column n+i is the slack of row i) and drops the eta
// file. It returns false, leaving the factor unusable, when a pivot is
// smaller than singularTol.
//
//ugo:coldpath amortized: one rebuild per refactorEtas pivots and one per separation round
func (f *factor) refactor(basis []int, n int, cols [][]colEntry) bool {
	f.m = len(basis)
	f.dropEtas()
	f.load(basis, n, cols)
	return f.peel() && f.factorNucleus()
}

// load copies the basis matrix into the refactor scratch, by column and
// as a row pattern, and resets the pivot bookkeeping.
func (f *factor) load(basis []int, n int, cols [][]colEntry) {
	m := f.m
	f.bbeg = grow(f.bbeg, m+1)
	f.bidx, f.bval = f.bidx[:0], f.bval[:0]
	f.rbeg = grow(f.rbeg, m+1)
	clear(f.rbeg)
	for p, j := range basis {
		f.bbeg[p] = len(f.bidx)
		if j >= n {
			f.bidx = append(f.bidx, j-n)
			f.bval = append(f.bval, 1)
			f.rbeg[j-n+1]++
			continue
		}
		for _, e := range cols[j] {
			f.bidx = append(f.bidx, e.row)
			f.bval = append(f.bval, e.val)
			f.rbeg[e.row+1]++
		}
	}
	f.bbeg[m] = len(f.bidx)
	for i := 0; i < m; i++ {
		f.rbeg[i+1] += f.rbeg[i]
	}
	f.rpos = grow(f.rpos, len(f.bidx))
	f.rstep = grow(f.rstep, m)
	copy(f.rstep, f.rbeg[:m]) // for now, the fill cursor of each row
	for p := 0; p < m; p++ {
		for k := f.bbeg[p]; k < f.bbeg[p+1]; k++ {
			i := f.bidx[k]
			f.rpos[f.rstep[i]] = p
			f.rstep[i]++
		}
	}

	f.cnt = grow(f.cnt, m)
	f.cstep = grow(f.cstep, m)
	f.prow = grow(f.prow, m)
	f.pcol = grow(f.pcol, m)
	f.udiag = grow(f.udiag, m)
	f.ubeg = grow(f.ubeg, m+1)
	f.uidx, f.uval = f.uidx[:0], f.uval[:0]
	f.lbeg = append(f.lbeg[:0], 0)
	f.lidx, f.lval = f.lidx[:0], f.lval[:0]
	for p := 0; p < m; p++ {
		f.rstep[p], f.cstep[p] = -1, -1
		f.cnt[p] = f.bbeg[p+1] - f.bbeg[p]
	}
}

// peel pivots every column that has, or comes to have, a single
// unpivoted row: the column enters U as it stands.
func (f *factor) peel() bool {
	f.queue = f.queue[:0]
	for p := 0; p < f.m; p++ {
		if f.cnt[p] == 1 {
			f.queue = append(f.queue, p)
		}
	}
	t := 0
	for head := 0; head < len(f.queue); head++ {
		p := f.queue[head]
		if f.cnt[p] != 1 {
			continue // its last row went to another singleton: singular, caught in the nucleus
		}
		f.ubeg[t] = len(f.uidx)
		r := -1
		for k := f.bbeg[p]; k < f.bbeg[p+1]; k++ {
			if i := f.bidx[k]; f.rstep[i] < 0 {
				r = i
				f.udiag[t] = f.bval[k]
			} else {
				f.uidx = append(f.uidx, i)
				f.uval = append(f.uval, f.bval[k])
			}
		}
		if math.Abs(f.udiag[t]) < singularTol {
			return false
		}
		f.prow[t], f.pcol[t] = r, p
		f.rstep[r], f.cstep[p] = t, t
		t++
		for k := f.rbeg[r]; k < f.rbeg[r+1]; k++ {
			if q := f.rpos[k]; f.cstep[q] < 0 {
				f.cnt[q]--
				if f.cnt[q] == 1 {
					f.queue = append(f.queue, q)
				}
			}
		}
	}
	f.npeel = t
	return true
}

// factorNucleus LU-factors the columns the peel left, sparsest first,
// each brought up to date with the steps before it (left-looking) in a
// dense work column that is zero outside the touched list.
func (f *factor) factorNucleus() bool {
	m := f.m
	f.nuc = f.nuc[:0]
	for p := 0; p < m; p++ {
		if f.cstep[p] < 0 {
			f.nuc = append(f.nuc, p)
		}
	}
	slices.SortFunc(f.nuc, func(a, b int) int {
		if f.cnt[a] != f.cnt[b] {
			return f.cnt[a] - f.cnt[b]
		}
		return a - b
	})
	// From here cnt counts per row: the nucleus entries of each unpivoted
	// row, the sparsity measure of the pivot choice.
	clear(f.cnt)
	for _, p := range f.nuc {
		for k := f.bbeg[p]; k < f.bbeg[p+1]; k++ {
			f.cnt[f.bidx[k]]++
		}
	}
	f.work, f.mark = grow(f.work, m), grow(f.mark, m)
	clear(f.work)
	clear(f.mark)
	t := f.npeel
	for _, p := range f.nuc {
		f.touched = f.touched[:0]
		for k := f.bbeg[p]; k < f.bbeg[p+1]; k++ {
			i := f.bidx[k]
			f.work[i] = f.bval[k]
			f.mark[i] = true
			f.touched = append(f.touched, i)
		}
		for s := f.npeel; s < t; s++ {
			v := f.work[f.prow[s]]
			if num.ExactZero(v) {
				continue
			}
			for k := f.lbeg[s-f.npeel]; k < f.lbeg[s-f.npeel+1]; k++ {
				i := f.lidx[k]
				if !f.mark[i] {
					f.mark[i] = true
					f.touched = append(f.touched, i)
				}
				f.work[i] -= f.lval[k] * v
			}
		}
		var maxAbs float64
		for _, i := range f.touched {
			if f.rstep[i] < 0 {
				maxAbs = math.Max(maxAbs, math.Abs(f.work[i]))
			}
		}
		if maxAbs < singularTol {
			return false
		}
		r := -1
		for _, i := range f.touched {
			if f.rstep[i] >= 0 || math.Abs(f.work[i]) < luThreshold*maxAbs {
				continue
			}
			if r < 0 || f.cnt[i] < f.cnt[r] ||
				(f.cnt[i] == f.cnt[r] && math.Abs(f.work[i]) > math.Abs(f.work[r])) {
				r = i
			}
		}
		// Entries in pivoted rows are the column of U, the rest over the
		// pivot the column of L.
		piv := f.work[r]
		f.ubeg[t] = len(f.uidx)
		for _, i := range f.touched {
			v := f.work[i]
			f.work[i], f.mark[i] = 0, false
			switch {
			case i == r || num.ExactZero(v):
			case f.rstep[i] >= 0:
				f.uidx = append(f.uidx, i)
				f.uval = append(f.uval, v)
			default:
				f.lidx = append(f.lidx, i)
				f.lval = append(f.lval, v/piv)
			}
		}
		f.lbeg = append(f.lbeg, len(f.lidx))
		f.udiag[t] = piv
		f.prow[t], f.pcol[t] = r, p
		f.rstep[r], f.cstep[p] = t, t
		t++
	}
	f.ubeg[m] = len(f.uidx)
	return true
}

// dropEtas empties the eta file and sizes its arenas for a full one at
// the current order, so that update and btran never grow them.
func (f *factor) dropEtas() {
	f.eta = grow(f.eta, refactorEtas*f.m)
	f.supp = grow(f.supp, f.m)
	f.epos, f.epiv = f.epos[:0], f.epiv[:0]
}

// update stacks one basis change on the factor: the column at position r
// is replaced by the column whose ftran image is w.
//
//ugo:hotpath
func (f *factor) update(r int, w []float64) {
	e := len(f.epos)
	copy(f.eta[e*f.m:(e+1)*f.m], w)
	f.eta[e*f.m+r] = 0
	f.epos = append(f.epos, r)
	f.epiv = append(f.epiv, w[r])
}

// ftran solves B x = a for the current basis. a is indexed by constraint
// row and is destroyed; x is indexed by basis position.
//
//ugo:hotpath
func (f *factor) ftran(a, x []float64) {
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
		for i, h := range f.eta[e*f.m : (e+1)*f.m] {
			x[i] -= h * v
		}
	}
}

// btran solves yᵀB = vᵀ for the current basis. v is indexed by basis
// position and is destroyed; y is indexed by constraint row.
//
// The eta phase keeps the positions where v may be nonzero in f.supp,
// sorted: only an eta's pivot position changes, so each eta adds at most
// that one, and its dot product runs over the list instead of over all
// m positions. The terms it skips are exact zeros, and the ones it keeps
// are summed in increasing position order, as a scan of the whole eta
// would sum them.
//
//ugo:hotpath
func (f *factor) btran(v, y []float64) {
	if len(f.epos) > 0 {
		f.supp = f.supp[:0]
		for i, vi := range v[:f.m] {
			if num.Nonzero(vi) {
				f.supp = append(f.supp, i)
			}
		}
	}
	for e := len(f.epos) - 1; e >= 0; e-- {
		r := f.epos[e]
		eta := f.eta[e*f.m : (e+1)*f.m]
		acc := v[r]
		for _, i := range f.supp {
			acc -= eta[i] * v[i]
		}
		v[r] = acc / f.epiv[e]
		if num.ExactZero(v[r]) {
			continue
		}
		// r may be listed already: a value that cancelled to zero keeps its
		// place.
		if k, listed := slices.BinarySearch(f.supp, r); !listed {
			f.supp = append(f.supp, 0)
			copy(f.supp[k+1:], f.supp[k:])
			f.supp[k] = r
		}
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
