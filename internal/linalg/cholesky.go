package linalg

import (
	"errors"
	"math"

	"repro/internal/num"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix has a
// non-positive pivot, i.e. it is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Chol holds a lower-triangular Cholesky factor L with S = L Lᵀ.
type Chol struct {
	N int
	L []float64 // row-major lower triangle (full storage, upper part zero)
}

// NewChol returns an empty factor of order n for CholeskyInto to fill.
func NewChol(n int) *Chol {
	return &Chol{N: n, L: make([]float64, n*n)}
}

// Cholesky factorizes a symmetric positive definite matrix. It returns
// ErrNotPositiveDefinite if a pivot falls below tol (a relative floor
// derived from the matrix scale).
func Cholesky(s *Sym) (*Chol, error) {
	c := NewChol(s.N)
	if err := CholeskyInto(c, s); err != nil {
		return nil, err
	}
	return c, nil
}

// CholeskyInto is Cholesky writing the factor into dst, whose storage
// it reuses; it allocates nothing. On error dst holds a partial factor
// and must not be used. Panics if dst's order differs from s's.
func CholeskyInto(dst *Chol, s *Sym) error {
	n := s.N
	if dst.N != n || len(dst.L) != n*n {
		panic("linalg: CholeskyInto order mismatch")
	}
	l := dst.L
	scale := s.MaxAbs()
	if num.ExactZero(scale) { // all-zero matrix: no positive pivot exists
		return ErrNotPositiveDefinite
	}
	tol := 1e-13 * scale
	for j := 0; j < n; j++ {
		d := s.A[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= tol {
			return ErrNotPositiveDefinite
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
	return nil
}

// Solve solves S x = b given the factorization of S.
func (c *Chol) Solve(b []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveInto(x, b)
	return x
}

// SolveInto is Solve writing the solution into x, which may be b
// itself; it allocates nothing. Panics if x or b is not of length N.
func (c *Chol) SolveInto(x, b []float64) {
	n := c.N
	if len(x) != n || len(b) != n {
		panic("linalg: SolveInto length mismatch")
	}
	c.forward(x, b, 0)
	c.backward(x)
}

// forward solves L z = b into x for a b that is zero above row from:
// z is zero there too, which x must already hold, and those rows add
// nothing to the rows below.
func (c *Chol) forward(x, b []float64, from int) {
	n := c.N
	for i := from; i < n; i++ {
		v := b[i]
		for k := from; k < i; k++ {
			v -= c.L[i*n+k] * x[k]
		}
		x[i] = v / c.L[i*n+i]
	}
}

// backward solves Lᵀ x = z in place (x[i] is still z[i] when it is
// read).
func (c *Chol) backward(x []float64) {
	n := c.N
	for i := n - 1; i >= 0; i-- {
		v := x[i]
		for k := i + 1; k < n; k++ {
			v -= c.L[k*n+i] * x[k]
		}
		x[i] = v / c.L[i*n+i]
	}
}

// LogDet returns log det S = 2 Σ log L_ii.
func (c *Chol) LogDet() float64 {
	var ld float64
	for i := 0; i < c.N; i++ {
		ld += math.Log(c.L[i*c.N+i])
	}
	return 2 * ld
}

// Inverse returns S⁻¹ as a symmetric matrix by solving against unit
// vectors. O(n³) but adequate for the matrix orders in this study.
func (c *Chol) Inverse() *Sym {
	inv := NewSym(c.N)
	c.InverseInto(inv)
	return inv
}

// InverseInto is Inverse writing S⁻¹ into inv; it allocates nothing.
// Panics if inv's order differs from the factor's.
func (c *Chol) InverseInto(inv *Sym) {
	n := c.N
	if inv.N != n || len(inv.A) != n*n {
		panic("linalg: InverseInto order mismatch")
	}
	// Column j of S⁻¹ is solved in place in row j (the matrix is
	// symmetric, and the symmetrization below makes the layout moot).
	// L z = e_j leaves z zero above row j, so the forward pass starts
	// there.
	for j := 0; j < n; j++ {
		row := inv.A[j*n : (j+1)*n]
		for i := range row {
			row[i] = 0
		}
		row[j] = 1
		c.forward(row, row, j)
		c.backward(row)
	}
	// Symmetrize to wash out round-off asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (inv.A[i*n+j] + inv.A[j*n+i])
			inv.A[i*n+j] = v
			inv.A[j*n+i] = v
		}
	}
}

// IsPSD reports whether S + shift*I is positive semidefinite, tested via
// Cholesky of S + (shift+jitter)*I with a tiny jitter for semidefinite
// boundary cases.
func IsPSD(s *Sym, shift float64) bool {
	t := s.Clone()
	jitter := 1e-9 * (1 + s.MaxAbs())
	for i := 0; i < t.N; i++ {
		t.A[i*t.N+i] += shift + jitter
	}
	_, err := Cholesky(t)
	return err == nil
}
