package lp_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// The two cut loops the solver stack actually drives this package with,
// rebuilt here from the public pieces so that the factorization tests
// and the ledger benchmarks run on real row shapes: sparse directed
// Steiner cuts found by max-flow, and dense eigenvector cuts of an
// LP-relaxed MISDP.

// steinerLP is the directed-cut LP of g before any cut is separated:
// the SPG model's columns and per-vertex rows, without the dual-ascent
// seed cuts, so that every cut row the loop adds is one it separated.
func steinerLP(g *steiner.SPG) (*steiner.Instance, *lp.Problem) {
	prob := (&steiner.Def{}).BuildModel(g)
	p := lp.NewProblem()
	for _, v := range prob.Vars {
		p.AddVar(v.Lo, v.Up, v.Obj)
	}
	for _, r := range prob.Rows {
		if !strings.HasPrefix(r.Name, "dacut_") {
			p.AddRow(r.Sense, r.RHS, r.Coefs)
		}
	}
	return prob.Data.(*steiner.Instance), p
}

// steinerCuts returns up to limit directed cuts x violates, one per
// terminal the root cannot reach with a unit of flow.
func steinerCuts(inst *steiner.Instance, x []float64, limit int) [][]lp.Nonzero {
	g := inst.SPG
	var cuts [][]lp.Nonzero
	for _, t := range g.Terminals() {
		if t == inst.Root || len(cuts) >= limit {
			continue
		}
		nw := maxflow.New(g.G.NumVertices())
		for j, a := range inst.VarArc {
			if x[j] > 1e-9 {
				nw.AddArc(g.ArcTail(a), g.ArcHead(a), x[j])
			}
		}
		if nw.MaxFlow(inst.Root, t) > 1-1e-6 {
			continue
		}
		src := nw.MinCutSource(inst.Root)
		var coefs []lp.Nonzero
		for j, a := range inst.VarArc {
			if src[g.ArcTail(a)] && !src[g.ArcHead(a)] {
				coefs = append(coefs, lp.Nonzero{Col: j, Val: 1})
			}
		}
		cuts = append(cuts, coefs)
	}
	return cuts
}

// eigenLP is the LP relaxation of p with every semidefinite block
// dropped: variables and bounds only.
func eigenLP(p *misdp.MISDP) *lp.Problem {
	q := lp.NewProblem()
	for i := 0; i < p.M; i++ {
		q.AddVar(p.Lo[i], p.Up[i], -p.B[i])
	}
	return q
}

// eigenCuts returns one row vᵀ(Σ A_i y_i)v ≤ vᵀCv per block whose
// matrix C − Σ A_i x_i has a negative eigenvalue with eigenvector v.
func eigenCuts(p *misdp.MISDP, x []float64) (rows [][]lp.Nonzero, rhs []float64) {
	for _, blk := range p.Blocks {
		lam, v := linalg.MinEigen(blk.Z(x))
		if lam > -1e-6 {
			continue
		}
		var coefs []lp.Nonzero
		for i, a := range blk.A {
			if a == nil {
				continue
			}
			if c := linalg.Dot(v, a.MulVec(v)); c != 0 {
				coefs = append(coefs, lp.Nonzero{Col: i, Val: c})
			}
		}
		rows = append(rows, coefs)
		rhs = append(rhs, linalg.Dot(v, blk.C.MulVec(v)))
	}
	return rows, rhs
}

// BenchmarkLPSteinerCutLoop is one whole root cut loop of a PUC analogue:
// cold solve of the flow-balance LP, then separation rounds (AddRow per
// violated cut, one warm Solve per round) until 300 cut rows sit on top
// of the model's own. The max-flow separation is inside the timed region
// but is a few percent of it. iters/op is the deterministic counter
// beside the wall clock.
func BenchmarkLPSteinerCutLoop(b *testing.B) {
	inst, p := steinerLP(puc.HypercubeSpread(6, 12, 100, 200, 2))
	b.ReportAllocs()
	b.ResetTimer()
	var iters, rows int
	for i := 0; i < b.N; i++ {
		s := lp.NewSolver(p)
		sol := s.Solve()
		iters += sol.Iters
		for s.NumRows() < p.NumRows()+300 && sol.Status == lp.Optimal {
			cuts := steinerCuts(inst, sol.X, len(inst.VarArc))
			if len(cuts) == 0 {
				break
			}
			for _, c := range cuts {
				s.AddRow(lp.GE, 1, c)
			}
			sol = s.Solve()
			iters += sol.Iters
		}
		rows = s.NumRows()
	}
	if rows < p.NumRows()+300 {
		b.Fatalf("cut loop stopped at %d cut rows, want ≥ 300", rows-p.NumRows())
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkLPDenseCutResolve is the eigenvector-cut loop on the LP
// relaxation of a min-k-partition root until the LP has 100 rows, every
// one dense in all variables: the opposite row shape to the Steiner cuts.
func BenchmarkLPDenseCutResolve(b *testing.B) {
	inst := testsets.MkP(10, 4, 7)
	p := eigenLP(inst)
	b.ReportAllocs()
	b.ResetTimer()
	var iters, rows int
	for i := 0; i < b.N; i++ {
		s := lp.NewSolver(p)
		sol := s.Solve()
		iters += sol.Iters
		for s.NumRows() < 100 && sol.Status == lp.Optimal {
			cuts, rhs := eigenCuts(inst, sol.X)
			if len(cuts) == 0 {
				break
			}
			for k, c := range cuts {
				s.AddRow(lp.LE, rhs[k], c)
			}
			sol = s.Solve()
			iters += sol.Iters
		}
		rows = s.NumRows()
	}
	if rows < 100 {
		b.Fatalf("cut loop stopped at %d rows, want 100", rows)
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// mostFractional returns the column of x nearest to ½ other than skip.
func mostFractional(x []float64, skip int) int {
	best, dist := -1, 1.0
	for j, v := range x {
		if d := math.Abs(v - 0.5); j != skip && d < dist {
			best, dist = j, d
		}
	}
	return best
}

// BenchmarkLPNodeJump is the LP of a best-first search that jumps
// between two subtrees. After the root cut loop of a PUC analogue (300
// cut rows), the root's most fractional arc is fixed to 0 and to 1: two
// sibling nodes, each solved from the root's basis and snapshotted. An
// op is the LP of a child of one sibling, the two siblings in turn: the
// sibling's own most fractional arc fixed to 0 or 1. In reload the
// sibling's snapshot is installed first; in carry the LP starts from
// the basis the previous op left, the other subtree's, as the node loop
// did before it kept snapshots. iters/op is the deterministic counter.
func BenchmarkLPNodeJump(b *testing.B) {
	inst, p := steinerLP(puc.HypercubeSpread(5, 16, 100, 170, 4))
	s := lp.NewSolver(p)
	sol := s.Solve()
	for s.NumRows() < p.NumRows()+300 && sol.Status == lp.Optimal {
		cuts := steinerCuts(inst, sol.X, len(inst.VarArc))
		if len(cuts) == 0 {
			break
		}
		for _, c := range cuts {
			s.AddRow(lp.GE, 1, c)
		}
		sol = s.Solve()
	}
	root := s.Basis(&lp.Basis{})
	arc := mostFractional(sol.X, -1)
	var sibling [2]struct {
		snap  lp.Basis
		child int
	}
	for k := range sibling {
		s.SetBasis(root)
		s.SetBound(arc, float64(k), float64(k))
		x := s.Solve()
		if x.Status != lp.Optimal {
			b.Fatalf("sibling %d: %v", k, x.Status)
		}
		s.Basis(&sibling[k].snap)
		sibling[k].child = mostFractional(x.X, arc)
	}
	for _, mode := range []string{"reload", "carry"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				k, v := i%2, float64(i/2%2)
				sib := &sibling[k]
				s.SetBound(sibling[1-k].child, 0, 1)
				s.SetBound(arc, float64(k), float64(k))
				s.SetBound(sib.child, v, v)
				if mode == "reload" {
					s.SetBasis(&sib.snap)
				}
				iters += s.Solve().Iters
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}
