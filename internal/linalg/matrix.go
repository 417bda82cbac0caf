// Package linalg provides the dense linear-algebra substrate used by the
// SDP solver and the eigenvector-cut separator: symmetric matrices,
// Cholesky factorization, Jacobi eigen-decomposition and dense linear
// solves. It replaces the LAPACK/Mosek dependency of the original
// SCIP-SDP stack with a small, self-contained implementation sufficient
// for the instance sizes exercised in this study.
//
// The Cholesky kernels come in two forms with one implementation each:
// CholeskyInto, Chol.SolveInto and Chol.InverseInto write into storage
// the caller owns and allocate nothing (the SDP barrier's Newton step
// runs on them), and Cholesky, Solve and Inverse allocate the result and
// call those.
package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric n×n matrix stored in full (row-major).
// Only the routines in this package rely on symmetry; the full storage
// keeps indexing trivial and cache-friendly for the small orders
// (n ≤ a few hundred) that appear in the MISDP test sets.
type Sym struct {
	N int
	A []float64 // len N*N, A[i*N+j]
}

// NewSym returns the zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	return &Sym{N: n, A: make([]float64, n*n)}
}

// SymFromDense builds a Sym from a row-major square matrix, symmetrizing
// it as (M+Mᵀ)/2.
func SymFromDense(n int, m []float64) *Sym {
	if len(m) != n*n {
		panic(fmt.Sprintf("linalg: SymFromDense length %d != %d", len(m), n*n))
	}
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.A[i*n+j] = 0.5 * (m[i*n+j] + m[j*n+i])
		}
	}
	return s
}

// At returns element (i,j).
func (s *Sym) At(i, j int) float64 { return s.A[i*s.N+j] }

// Set assigns element (i,j) and (j,i).
func (s *Sym) Set(i, j int, v float64) {
	s.A[i*s.N+j] = v
	s.A[j*s.N+i] = v
}

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	c := NewSym(s.N)
	copy(c.A, s.A)
	return c
}

// AddScaled adds alpha*t to s in place. Panics if orders differ.
func (s *Sym) AddScaled(alpha float64, t *Sym) {
	if s.N != t.N {
		panic("linalg: AddScaled order mismatch")
	}
	for i := range s.A {
		s.A[i] += alpha * t.A[i]
	}
}

// Scale multiplies every entry by alpha.
func (s *Sym) Scale(alpha float64) {
	for i := range s.A {
		s.A[i] *= alpha
	}
}

// MulVec computes y = S x.
func (s *Sym) MulVec(x []float64) []float64 {
	n := s.N
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := s.A[i*n : (i+1)*n]
		var acc float64
		for j, xv := range x {
			acc += row[j] * xv
		}
		y[i] = acc
	}
	return y
}

// QuadForm computes xᵀ S x.
func (s *Sym) QuadForm(x []float64) float64 {
	y := s.MulVec(x)
	return Dot(x, y)
}

// Trace returns the trace of S.
func (s *Sym) Trace() float64 {
	var t float64
	for i := 0; i < s.N; i++ {
		t += s.A[i*s.N+i]
	}
	return t
}

// InnerProd returns the Frobenius inner product ⟨S,T⟩ = Σ_ij S_ij T_ij.
func (s *Sym) InnerProd(t *Sym) float64 {
	if s.N != t.N {
		panic("linalg: InnerProd order mismatch")
	}
	var acc float64
	for i := range s.A {
		acc += s.A[i] * t.A[i]
	}
	return acc
}

// MaxAbs returns the largest absolute entry.
func (s *Sym) MaxAbs() float64 {
	var m float64
	for _, v := range s.A {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Identity returns alpha*I of order n.
func Identity(n int, alpha float64) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		s.A[i*n+i] = alpha
	}
	return s
}

// Dot returns the inner product of two vectors of equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var acc float64
	for i, v := range a {
		acc += v * b[i]
	}
	return acc
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var acc float64
	for _, x := range v {
		acc += x * x
	}
	return math.Sqrt(acc)
}

// NormInf returns the maximum absolute entry of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// OuterAdd adds alpha * v vᵀ to S in place.
func (s *Sym) OuterAdd(alpha float64, v []float64) {
	n := s.N
	if len(v) != n {
		panic("linalg: OuterAdd length mismatch")
	}
	for i := 0; i < n; i++ {
		av := alpha * v[i]
		for j := 0; j < n; j++ {
			s.A[i*n+j] += av * v[j]
		}
	}
}
