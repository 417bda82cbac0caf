package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rowNorms returns ‖e_pᵀB⁻¹‖² for every basis position p, by btran.
func rowNorms(s *Solver) []float64 {
	out := make([]float64, s.m)
	for p := range out {
		s.btranUnit(p)
		for _, v := range s.btranBuf[:s.m] {
			out[p] += v * v
		}
	}
	return out
}

// Property: each update of the dual steepest-edge weights is exact.
// From the slack basis, a random run of edits — costs changed (primal
// pivots follow), bounds moved (dual pivots follow), rows deleted
// (nonbasic slacks among them, pivoted in by DeleteRows) — re-solved one
// pivot at a time, leaves every weight dse[p] equal to ‖e_pᵀB⁻¹‖²,
// recomputed by btran, to 1e-6 relative after every step. The update
// cancels large terms on an ill-conditioned basis, and the rounding it
// loses there would add up over a run, so each step starts from the
// recomputed weights.
func TestDSEWeightsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomFeasibleLP(rng, 25, 60)
	s := NewSolver(p)
	s.MaxIters = 1 // one pivot per Solve
	s.resetSlackBasis()
	step := 0
	check := func(what string) {
		t.Helper()
		want := rowNorms(s)
		for q, w := range want {
			if math.Abs(s.dse[q]-w) > 1e-6*w {
				t.Fatalf("step %d (%s): dse[%d] = %v, ‖e_pᵀB⁻¹‖² = %v", step, what, q, s.dse[q], w)
			}
		}
		copy(s.dse, want)
		step++
	}
	var dual, primal, slackPivots int
	for round := 0; round < 80; round++ {
		switch k := rng.Intn(4); {
		case k == 0 && s.m > 30:
			del := make([]bool, s.m)
			for range 1 + rng.Intn(3) {
				i := rng.Intn(s.m)
				del[i] = true
				if s.state[s.n+i] != stBasic {
					slackPivots++
				}
			}
			s.DeleteRows(del)
			check("DeleteRows")
		case k < 2:
			for range 1 + rng.Intn(3) {
				s.SetObj(rng.Intn(s.n), rng.NormFloat64())
			}
		default:
			// Keep the midpoint randomFeasibleLP builds its rows through,
			// so the LP stays feasible.
			j := rng.Intn(s.n)
			mid := (p.Lo[j] + p.Up[j]) / 2
			s.SetBound(j, mid-rng.Float64()*(mid-p.Lo[j]), mid+rng.Float64()*(p.Up[j]-mid))
		}
		for range 200 {
			startsDual, _ := startInfeasibility(s)
			before := slices.Clone(s.basis)
			if sol := s.Solve(); sol.Status != IterLimit {
				break
			}
			if slices.Equal(before, s.basis) {
				continue
			}
			if startsDual {
				dual++
				check("dual pivot")
			} else {
				primal++
				check("primal pivot")
			}
		}
	}
	t.Logf("%d dual pivots, %d primal pivots, %d nonbasic slacks deleted; %d rows left", dual, primal, slackPivots, s.m)
	if dual < 50 || primal < 20 || slackPivots < 3 {
		t.Fatalf("%d dual pivots, %d primal pivots, %d nonbasic slacks deleted: the run does not exercise every update",
			dual, primal, slackPivots)
	}
}
