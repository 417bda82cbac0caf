package lp

import (
	"math/rand"
	"testing"
)

// resolveProblem is the small dense-ish LP behind the allocation pins.
func resolveProblem() (p *Problem, n int) {
	rng := rand.New(rand.NewSource(7))
	p = NewProblem()
	n, m := 30, 20
	for j := 0; j < n; j++ {
		p.AddVar(0, 10, rng.Float64()*2-1)
	}
	for i := 0; i < m; i++ {
		var coefs []Nonzero
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				coefs = append(coefs, Nonzero{Col: j, Val: rng.Float64()*4 - 2})
			}
		}
		p.AddRow(LE, 5+rng.Float64()*10, coefs)
	}
	return p, n
}

// BenchmarkLPResolve measures the warm re-solve path: bounds flip
// between iterations the way branch and bound toggles them, and the
// solver re-solves from the previous basis. Per-iteration simplex
// scratch (alpha rows, ftran/btran work vectors, pricing arrays) is
// what the hotalloc fixes hoist into reusable solver buffers.
func BenchmarkLPResolve(b *testing.B) {
	p, n := resolveProblem()
	s := NewSolver(p)
	if sol := s.Solve(); sol.Status != Optimal {
		b.Fatalf("cold solve status = %v", sol.Status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		if i%2 == 0 {
			s.SetBound(j, 0, 1)
		} else {
			s.SetBound(j, 0, 10)
		}
		s.Solve()
	}
}

// The factor's per-pivot operations, the yᵀA product and the dual
// steepest-edge update run on arenas that persist across refactors: once
// those have grown to their working size, a solve, an eta update, a
// pricing product or a weight update allocates nothing. Neither does a
// basis snapshot into a reused Basis, nor reloading it.
func TestFactorHotOpsDoNotAllocate(t *testing.T) {
	p, n := resolveProblem()
	s := NewSolver(p)
	if sol := s.Solve(); sol.Status != Optimal {
		t.Fatalf("cold solve status = %v", sol.Status)
	}
	f := &s.fac
	a, x := make([]float64, s.m), make([]float64, s.m)
	ya := make([]float64, s.n+s.m)
	fill := func(v []float64) {
		for i := range v {
			v[i] = float64(i%7) - 3
		}
	}
	unit := func(v []float64) {
		clear(v)
		v[len(v)/2] = 1
	}
	stack := func() { // a full eta file, as deep as the refactor trigger lets it get
		f.dropEtas()
		for j := 0; len(f.epos) < refactorEtas; j = (j + 1) % n {
			if s.state[j] == stBasic {
				continue
			}
			w := s.ftran(j)
			f.update(largest(w), w)
		}
	}
	stack() // grow the arenas once
	w := append([]float64(nil), s.ftran(n-1)...)
	r := largest(w)
	var snap Basis
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"ftran", func() { fill(a); f.ftran(a, x) }},
		{"btran", func() { fill(x); f.btran(x, a) }},
		{"btran of a unit vector", func() { unit(x); f.btran(x, a) }},
		{"timesA", func() { fill(a); s.timesA(a, ya) }},
		{"update that fills the eta file", func() {
			f.epos, f.epiv = f.epos[:refactorEtas-1], f.epiv[:refactorEtas-1]
			f.update(r, w)
		}},
		{"eta update", stack},
		{"dual steepest-edge update", func() { s.btranUnit(r); s.updateDSE(r, w) }},
		{"basis snapshot", func() { s.Basis(&snap) }},
		{"basis reload", func() {
			if !s.SetBasis(&snap) {
				t.Fatal("the snapshot of a factored basis was not reloaded")
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(50, op.run); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", op.name, allocs)
		}
	}
}
