package linalg

import (
	"math"
	"sort"
)

// EigenResult holds an eigendecomposition S = V diag(Values) Vᵀ with
// eigenvalues in ascending order and eigenvectors as the columns of V
// (Vectors[k] is the k-th eigenvector, matching Values[k]).
type EigenResult struct {
	Values  []float64
	Vectors [][]float64
}

// Eigen computes the full eigendecomposition of a symmetric matrix with
// the cyclic Jacobi method. Jacobi is slower than tridiagonalization-based
// methods but is simple, numerically robust and unconditionally
// convergent — the right trade-off for the matrix orders (≤ ~200) used by
// the eigenvector-cut separator and the SDP barrier solver.
func Eigen(s *Sym) *EigenResult {
	n := s.N
	a := make([]float64, n*n)
	copy(a, s.A)
	// v starts as identity; accumulates rotations.
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	jacobi(a, v, n)
	res := &EigenResult{
		Values:  make([]float64, n),
		Vectors: make([][]float64, n),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a[i*n+i]
	}
	sort.Slice(idx, func(x, y int) bool { return diag[idx[x]] < diag[idx[y]] })
	for k, i := range idx {
		res.Values[k] = diag[i]
		vec := make([]float64, n)
		for r := 0; r < n; r++ {
			vec[r] = v[r*n+i]
		}
		res.Vectors[k] = vec
	}
	return res
}

// MinEigen returns the smallest eigenvalue and a corresponding unit
// eigenvector. It is the workhorse of the Sherali–Fraticelli eigenvector
// cut: a negative smallest eigenvalue certifies SDP infeasibility of the
// current point and its eigenvector yields the violated valid inequality.
func MinEigen(s *Sym) (float64, []float64) {
	e := Eigen(s)
	return e.Values[0], e.Vectors[0]
}

// MinEigenvalue returns MinEigen's eigenvalue, bit for bit, without
// forming an eigenvector: it runs the same sweeps on a copy of s in
// scratch (allocated when shorter than N²) and skips the rotations'
// accumulation, which the rotations of the matrix never read.
func MinEigenvalue(s *Sym, scratch []float64) float64 {
	n := s.N
	if len(scratch) < n*n {
		scratch = make([]float64, n*n)
	}
	a := scratch[:n*n]
	copy(a, s.A)
	jacobi(a, nil, n)
	lam := math.Inf(1)
	for i := 0; i < n; i++ {
		if d := a[i*n+i]; d < lam {
			lam = d
		}
	}
	return lam
}

// jacobi diagonalizes the symmetric n×n matrix a in place by cyclic
// Jacobi sweeps, accumulating the rotations into v unless v is nil.
func jacobi(a, v []float64, n int) {
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		scale := 1.0
		for i := 0; i < n; i++ {
			if d := math.Abs(a[i*n+i]); d > scale {
				scale = d
			}
		}
		if math.Sqrt(off) <= 1e-14*float64(n)*scale {
			return
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := a[p*n+p]
				aqq := a[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e7 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				tau := sn / (1 + c)
				// Update a: rows/cols p and q.
				a[p*n+p] = app - t*apq
				a[q*n+q] = aqq + t*apq
				a[p*n+q] = 0
				a[q*n+p] = 0
				for k := 0; k < n; k++ {
					if k == p || k == q {
						continue
					}
					akp := a[k*n+p]
					akq := a[k*n+q]
					a[k*n+p] = akp - sn*(akq+tau*akp)
					a[k*n+q] = akq + sn*(akp-tau*akq)
					a[p*n+k] = a[k*n+p]
					a[q*n+k] = a[k*n+q]
				}
				if v == nil {
					continue
				}
				// Accumulate rotation into v.
				for k := 0; k < n; k++ {
					vkp := v[k*n+p]
					vkq := v[k*n+q]
					v[k*n+p] = vkp - sn*(vkq+tau*vkp)
					v[k*n+q] = vkq + sn*(vkp-tau*vkq)
				}
			}
		}
	}
}
