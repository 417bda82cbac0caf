package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The allocating kernels as they were before the in-place forms existed
// (fresh zeroed storage, two-buffer solve, inverse assembled column by
// column), kept as the reference the in-place forms must match bit for
// bit.

func refCholesky(s *Sym) []float64 {
	n := s.N
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		d := s.A[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			v := s.A[i*n+j]
			for k := 0; k < j; k++ {
				v -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = v / ljj
		}
	}
	return l
}

func refSolve(l []float64, b []float64) []float64 {
	n := len(b)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		v := b[i]
		for k := 0; k < i; k++ {
			v -= l[i*n+k] * z[k]
		}
		z[i] = v / l[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := z[i]
		for k := i + 1; k < n; k++ {
			v -= l[k*n+i] * x[k]
		}
		x[i] = v / l[i*n+i]
	}
	return x
}

func refInverse(l []float64, n int) []float64 {
	inv := make([]float64, n*n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := refSolve(l, e)
		e[j] = 0
		for i := 0; i < n; i++ {
			inv[i*n+j] = col[i]
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (inv[i*n+j] + inv[j*n+i])
			inv[i*n+j], inv[j*n+i] = v, v
		}
	}
	return inv
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestInPlaceKernelsMatchReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 8, 16} {
		// One destination reused across matrices: what an earlier
		// factorization left behind must not leak into the next.
		ch, inv := NewChol(n), NewSym(n)
		x := make([]float64, n)
		for trial := 0; trial < 4; trial++ {
			s := randSPD(rng, n)
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			wantL := refCholesky(s)
			if err := CholeskyInto(ch, s); err != nil {
				t.Fatal(err)
			}
			alloc, err := Cholesky(s)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(ch.L, wantL) || !sameBits(alloc.L, wantL) {
				t.Fatalf("n=%d: Cholesky factor differs from the reference", n)
			}
			wantX := refSolve(wantL, b)
			ch.SolveInto(x, b)
			if !sameBits(x, wantX) || !sameBits(ch.Solve(b), wantX) {
				t.Fatalf("n=%d: Solve differs from the reference", n)
			}
			ch.SolveInto(b, b) // solution over its own right-hand side
			if !sameBits(b, wantX) {
				t.Fatalf("n=%d: aliased SolveInto differs from the reference", n)
			}
			wantInv := refInverse(wantL, n)
			ch.InverseInto(inv)
			if !sameBits(inv.A, wantInv) || !sameBits(ch.Inverse().A, wantInv) {
				t.Fatalf("n=%d: Inverse differs from the reference", n)
			}
		}
	}
}

func TestInPlaceKernelsRejectWrongOrder(t *testing.T) {
	s := randSPD(rand.New(rand.NewSource(1)), 4)
	ch, err := Cholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a destination of the wrong order", name)
			}
		}()
		f()
	}
	mustPanic("CholeskyInto", func() { _ = CholeskyInto(NewChol(3), s) })
	mustPanic("SolveInto (x)", func() { ch.SolveInto(make([]float64, 5), make([]float64, 4)) })
	mustPanic("SolveInto (b)", func() { ch.SolveInto(make([]float64, 4), make([]float64, 3)) })
	mustPanic("InverseInto", func() { ch.InverseInto(NewSym(5)) })
}

func TestCholeskyIntoReportsIndefinite(t *testing.T) {
	ch := NewChol(2)
	if err := CholeskyInto(ch, SymFromDense(2, []float64{1, 2, 2, 1})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("indefinite matrix: err = %v", err)
	}
	if err := CholeskyInto(ch, NewSym(2)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero matrix: err = %v", err)
	}
}
