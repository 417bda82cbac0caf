package lp

import "math"

// Basis is a snapshot of a Solver's basis, compact enough to keep one
// per open subtree of a search: the state of every column, slacks
// included, in two bits, and the dual steepest-edge weight of every
// basic column as a float32, in ascending column order. Basis positions
// are not kept: SetBasis lays the basic columns out in ascending order,
// and each weight follows its column. A Basis of no columns, the zero
// Basis among them, is empty.
type Basis struct {
	n, m   int       // structural columns and rows
	epoch  int       // the Solver's DeleteRows count at the snapshot
	state  []uint8   // column j's state in bits 2(j mod 4) and up of byte j/4
	weight []float32 // per basic column, ascending column order
}

// Basis writes a snapshot of the current basis into dst, reusing its
// buffers, and returns dst. A Solver that has no basis yet leaves dst
// empty.
func (s *Solver) Basis(dst *Basis) *Basis {
	dst.n, dst.m, dst.epoch = s.n, s.m, s.epoch
	if !s.hasBasis {
		dst.n, dst.m = 0, 0
		return dst
	}
	cols := s.n + s.m
	dst.state = grow(dst.state, (cols+3)/4)
	clear(dst.state)
	for j, st := range s.state[:cols] {
		dst.state[j/4] |= uint8(st) << (j % 4 * 2)
	}
	// alphaBuf, per-iteration scratch, carries each basic column's weight
	// from its position to its column.
	s.alphaBuf = grow(s.alphaBuf, cols)
	for p, j := range s.basis {
		s.alphaBuf[j] = s.dse[p]
	}
	dst.weight = grow(dst.weight, s.m)
	k := 0
	for j, st := range s.state[:cols] {
		if st == stBasic {
			dst.weight[k] = float32(s.alphaBuf[j])
			k++
		}
	}
	return dst
}

// Bytes returns the bytes b's buffers hold.
func (b *Basis) Bytes() int { return cap(b.state) + 4*cap(b.weight) }

// SetBasis installs snapshot b, taken from this Solver, and reports
// whether its basis is now the Solver's. Rows added since the snapshot
// get basic slacks with weight 1, as AddRow gives them. Nonbasic columns
// are pegged to the bounds they have now, as SetBound pegs them, so the
// slack of a row disabled since is free. The basis is factored once; a
// singular one gives way to the all-slack basis, and SetBasis reports
// false. An empty snapshot, or one taken before a DeleteRows, is
// refused and leaves the Solver as it was.
func (s *Solver) SetBasis(b *Basis) bool {
	if b.n+b.m == 0 || b.n != s.n || b.epoch != s.epoch || b.m > s.m {
		return false
	}
	s.basis = grow(s.basis, s.m)
	s.xb = grow(s.xb, s.m)
	s.dse = grow(s.dse, s.m)
	p := 0
	for j := range b.n + b.m {
		st := int8(b.state[j/4] >> (j % 4 * 2) & 3)
		s.state[j] = st
		if st == stBasic {
			s.basis[p], s.dse[p] = j, float64(b.weight[p])
			p++
		} else {
			s.peg(j)
		}
	}
	for j := s.n + b.m; j < s.n+s.m; j++ {
		s.state[j] = stBasic
		s.basis[p], s.dse[p] = j, 1
		p++
	}
	s.hasBasis = true
	s.pricing = priceStale
	if s.fac.refactor(s.basis, s.n, s.cols) {
		return true
	}
	s.resetSlackBasis()
	return false
}

// peg moves nonbasic column j off a bound it no longer has: from an
// infinite bound to its other bound, or to free when both are infinite;
// a free column goes to a finite bound when it has one.
func (s *Solver) peg(j int) {
	loInf, upInf := math.IsInf(s.lo[j], -1), math.IsInf(s.up[j], 1)
	switch s.state[j] {
	case stLower:
		if loInf {
			if upInf {
				s.state[j] = stFree
			} else {
				s.state[j] = stUpper
			}
		}
	case stUpper:
		if upInf {
			if loInf {
				s.state[j] = stFree
			} else {
				s.state[j] = stLower
			}
		}
	case stFree:
		if !loInf {
			s.state[j] = stLower
		} else if !upInf {
			s.state[j] = stUpper
		}
	}
}
