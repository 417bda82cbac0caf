package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSym(rng *rand.Rand, n int) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// randSPD returns M Mᵀ + I, which is symmetric positive definite.
func randSPD(rng *rand.Rand, n int) *Sym {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += m[i*n+k] * m[j*n+k]
			}
			s.A[i*n+j] = acc
		}
		s.A[i*n+i] += 1
	}
	return s
}

func TestSymSetAt(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 2, 4.5)
	if s.At(0, 2) != 4.5 || s.At(2, 0) != 4.5 {
		t.Fatalf("Set did not symmetrize: %v %v", s.At(0, 2), s.At(2, 0))
	}
}

func TestSymFromDenseSymmetrizes(t *testing.T) {
	m := []float64{1, 2, 4, 3}
	s := SymFromDense(2, m)
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Fatalf("expected symmetrized off-diagonal 3, got %v %v", s.At(0, 1), s.At(1, 0))
	}
}

func TestSymMulVec(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(0, 1, 1)
	s.Set(1, 1, 3)
	y := s.MulVec([]float64{1, 2})
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("MulVec wrong: %v", y)
	}
}

func TestSymQuadForm(t *testing.T) {
	s := Identity(3, 2)
	if q := s.QuadForm([]float64{1, 2, 3}); math.Abs(q-28) > 1e-12 {
		t.Fatalf("QuadForm = %v, want 28", q)
	}
}

func TestSymTraceInner(t *testing.T) {
	s := Identity(4, 3)
	if s.Trace() != 12 {
		t.Fatalf("Trace = %v", s.Trace())
	}
	if ip := s.InnerProd(Identity(4, 1)); ip != 12 {
		t.Fatalf("InnerProd = %v", ip)
	}
}

func TestOuterAdd(t *testing.T) {
	s := NewSym(2)
	s.OuterAdd(2, []float64{1, 3})
	if s.At(0, 0) != 2 || s.At(0, 1) != 6 || s.At(1, 1) != 18 {
		t.Fatalf("OuterAdd wrong: %+v", s.A)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		s := randSPD(rng, n)
		c, err := Cholesky(s)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := s.MulVec(x)
		got := c.Solve(b)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: solve mismatch at %d: %v vs %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 0, 1)
	s.Set(1, 1, -1)
	if _, err := Cholesky(s); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	s := Identity(3, 2)
	c, err := Cholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Log(2)
	if math.Abs(c.LogDet()-want) > 1e-12 {
		t.Fatalf("LogDet = %v, want %v", c.LogDet(), want)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randSPD(rng, 6)
	c, err := Cholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inverse()
	// S * S⁻¹ ≈ I.
	for i := 0; i < 6; i++ {
		e := make([]float64, 6)
		e[i] = 1
		col := inv.MulVec(e)
		res := s.MulVec(col)
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(res[j]-want) > 1e-7 {
				t.Fatalf("inverse check failed at (%d,%d): %v", i, j, res[j])
			}
		}
	}
}

func TestIsPSD(t *testing.T) {
	if !IsPSD(Identity(3, 1), 0) {
		t.Fatal("identity should be PSD")
	}
	s := NewSym(2)
	s.Set(0, 0, -1)
	if IsPSD(s, 0) {
		t.Fatal("negative diagonal should not be PSD")
	}
	if !IsPSD(s, 2) {
		t.Fatal("shift should make it PSD")
	}
}

func TestEigenDiagonal(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 3)
	s.Set(1, 1, -1)
	s.Set(2, 2, 2)
	e := Eigen(s)
	want := []float64{-1, 2, 3}
	for i, v := range want {
		if math.Abs(e.Values[i]-v) > 1e-12 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, e.Values[i], v)
		}
	}
}

func TestEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(0, 1, 1)
	s.Set(1, 1, 2)
	e := Eigen(s)
	if math.Abs(e.Values[0]-1) > 1e-12 || math.Abs(e.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", e.Values)
	}
}

// Property: S v_k = λ_k v_k and the eigenvectors are orthonormal, and the
// decomposition reconstructs the matrix.
func TestEigenPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		s := randSym(r, n)
		e := Eigen(s)
		scale := 1 + s.MaxAbs()
		for k := 0; k < n; k++ {
			sv := s.MulVec(e.Vectors[k])
			for i := 0; i < n; i++ {
				if math.Abs(sv[i]-e.Values[k]*e.Vectors[k][i]) > 1e-8*scale {
					return false
				}
			}
			if math.Abs(Norm2(e.Vectors[k])-1) > 1e-9 {
				return false
			}
			for j := k + 1; j < n; j++ {
				if math.Abs(Dot(e.Vectors[k], e.Vectors[j])) > 1e-9 {
					return false
				}
			}
		}
		// Ascending order.
		for k := 1; k < n; k++ {
			if e.Values[k] < e.Values[k-1]-1e-12*scale {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMinEigenAgreesWithPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		s := randSym(rng, n)
		lam, v := MinEigen(s)
		if q := s.QuadForm(v); math.Abs(q-lam) > 1e-7*(1+s.MaxAbs()) {
			t.Fatalf("vᵀSv = %v but λ_min = %v", q, lam)
		}
		if lam > 1e-7 && !IsPSD(s, 0) {
			t.Fatalf("λ_min = %v > 0 but IsPSD says no", lam)
		}
		if lam < -1e-6 && IsPSD(s, 0) {
			t.Fatalf("λ_min = %v < 0 but IsPSD says yes", lam)
		}
	}
}

// MinEigenvalue runs MinEigen's sweeps without the eigenvectors, which
// the rotations of the matrix never read: the value is MinEigen's to
// the bit, with scratch too short, exact or longer than N².
func TestMinEigenvalueMatchesMinEigenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 5, 8, 16, 32} {
		for trial := 0; trial < 6; trial++ {
			s := randSym(rng, n)
			want, _ := MinEigen(s)
			for _, scratch := range [][]float64{nil, make([]float64, n*n), make([]float64, n*n+3)} {
				if got := MinEigenvalue(s, scratch); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d (scratch %d): MinEigenvalue %v, MinEigen %v", n, trial, len(scratch), got, want)
				}
			}
		}
	}
}

func TestLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		m := make([]float64, n*n)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			m[i*n+i] += 3 // keep well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m[i*n+j] * x[j]
			}
		}
		got, err := SolveDense(n, m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				t.Fatalf("trial %d: LU solve mismatch at %d", trial, i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	m := []float64{1, 2, 2, 4}
	if _, err := FactorLU(2, m); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("Norm2 wrong")
	}
	if NormInf([]float64{-3, 2}) != 3 {
		t.Fatal("NormInf wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("Axpy wrong")
	}
}
