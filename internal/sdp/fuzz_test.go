package sdp

import (
	"testing"

	"repro/internal/linalg"
)

// fuzzProblem decodes data into a one-block SDP of order 1–3 over one or
// two variables boxed in [−2, 2]: data[0] picks the order, data[1] the
// number of variables, and every following byte, read as a signed
// multiple of 1/32, fills b, then C's upper triangle, then each A_i's
// (bytes past the end read as zero).
func fuzzProblem(data []byte) *Problem {
	at := func(k int) float64 {
		if k >= len(data) {
			return 0
		}
		return float64(int8(data[k])) / 32
	}
	n, m := 1, 1
	if len(data) > 1 {
		n, m = 1+int(data[0]%3), 1+int(data[1]%2)
	}
	k := 2
	p := &Problem{M: m, B: make([]float64, m), Lo: make([]float64, m), Up: make([]float64, m)}
	for i := 0; i < m; i++ {
		p.B[i], p.Lo[i], p.Up[i] = at(k), -2, 2
		k++
	}
	sym := func() *linalg.Sym {
		s := linalg.NewSym(n)
		for r := 0; r < n; r++ {
			for c := r; c < n; c++ {
				s.Set(r, c, at(k))
				k++
			}
		}
		return s
	}
	blk := &Block{N: n, C: sym(), A: make([]*linalg.Sym, m)}
	for i := range blk.A {
		blk.A[i] = sym()
	}
	p.Blocks = []*Block{blk}
	return p
}

// FuzzSolveCertifiedBound holds the certified bound to its promise on
// small problems: whenever Solve reports Solved, UpperBound is at least
// bᵀŷ at every point ŷ of a 121-per-axis grid over the box that
// linalg.MinEigen finds feasible. The certificate is valid at any
// iterate, however loosely centred, which is what lets the μ schedule
// centre loosely between levels. The seeds under testdata/fuzz are
// named after their order, variable count, Solve's status, whether the
// grid holds a feasible point and whether the penalty slack was dropped;
// in lowerboxbinds the optimum sits on the box, where only the residual
// term of the certificate keeps it valid. Every input is also solved on
// one Solver kept across the inputs, which must return the fresh
// Solver's Result bit for bit.
func FuzzSolveCertifiedBound(f *testing.F) {
	kept := new(Solver) // a fuzz worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		r := Solve(p, Options{})
		if field := BitsDiffer(kept.Solve(p, Options{}), r); field != "" {
			t.Fatalf("kept Solver's %s differs from a fresh Solver's", field)
		}
		if r.Status != Solved {
			return
		}
		if best := gridOptimum(p, 120); r.UpperBound < best {
			t.Fatalf("upper bound %.17g below the feasible grid point value %.17g (obj %v, penalty %v)", r.UpperBound, best, r.Obj, r.Penalty)
		}
	})
}
