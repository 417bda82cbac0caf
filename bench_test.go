// Benchmarks regenerating the paper's evaluation: one testing.B target
// per table and figure (scaled-down limits; run cmd/benchtables for the
// full versions and the paper-layout output), plus microbenchmarks for
// the substrates that dominate the solvers' runtime.
package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// BenchmarkTable1_SteinerSharedMemory reproduces Table 1: shared-memory
// ug[SCIP-Jack] scaling over the five experiments.Table1Names. The
// root-dominated first instance is checked by TestTable1ShapeAndFormat
// in the experiments package; here the wall-clock of the whole sweep is
// measured, with the speedup of the last (headline) instance.
func BenchmarkTable1_SteinerSharedMemory(b *testing.B) {
	threads := []int{1, 2, 4}
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable1(experiments.Table1Names, threads, 35)
		if len(rows) != 5 {
			b.Fatalf("expected 5 rows, got %d", len(rows))
		}
		speedup := rows[4].Times[1] / rows[4].Times[threads[len(threads)-1]]
		b.ReportMetric(speedup, rows[4].Name+"-speedup")
	}
}

// BenchmarkTable2_CheckpointRestartSeries reproduces Table 2: a series
// of time-limited runs on experiments.Table2Name, each restarted from the
// previous checkpoint, with the final run closing the instance.
func BenchmarkTable2_CheckpointRestartSeries(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		ckpt := filepath.Join(dir, "t2.ckpt")
		rows := experiments.RunTable2(experiments.Table2Name, 2, 0.15, 8, ckpt)
		last := rows[len(rows)-1]
		if !last.Optimal {
			b.Fatalf("restart series did not close the instance: %+v", last)
		}
		b.ReportMetric(float64(len(rows)), "runs")
		b.ReportMetric(float64(last.OpenStart), "primitive-nodes-at-last-restart")
		os.Remove(ckpt)
	}
}

// BenchmarkTable3_IncumbentImprovementRuns reproduces Table 3: repeated
// racing runs on experiments.Table3Name, each seeded with the previous best
// solution; the reproduction target is that the primal bound improves
// across runs on an instance whose gap stays open.
func BenchmarkTable3_IncumbentImprovementRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable3(experiments.Table3Name, 4, 2, 2.5)
		improved := 0
		for _, r := range rows {
			if r.Improved {
				improved++
			}
		}
		b.ReportMetric(float64(improved), "improving-runs")
		b.ReportMetric(rows[len(rows)-1].FinalPrimal, "final-primal")
	}
}

// BenchmarkTable4_MISDPSpeedup reproduces Table 4: sequential SCIP-SDP
// versus ug[SCIP-SDP] with growing thread counts over the three CBLIB
// families (#solved and shifted geometric mean times).
func BenchmarkTable4_MISDPSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable4(experiments.StandardTestsets(3), []int{1, 2, 4}, 8)
		seq := res.Cells["SCIP-SDP"]["Total"]
		par := res.Cells["ug [SCIP-SDP] 4 thr."]["Total"]
		if par.Solved < seq.Solved {
			b.Logf("parallel solved fewer: %d vs %d", par.Solved, seq.Solved)
		}
		b.ReportMetric(seq.Time/par.Time, "speedup-4thr")
	}
}

// BenchmarkFigure1_RacingWinnerHistogram reproduces Figure 1: which
// racing setting wins, per test-set family (odd = SDP-based settings,
// even = LP-based).
func BenchmarkFigure1_RacingWinnerHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure1(experiments.StandardTestsets(3), 8, 8, 8)
		lpWins, sdpWins := 0, 0
		for name, fams := range res.Winners {
			total := fams["TTD"] + fams["CLS"] + fams["Mk-P"]
			if strings.Contains(name, ":lp") {
				lpWins += total
			} else {
				sdpWins += total
			}
		}
		b.ReportMetric(float64(lpWins), "lp-wins")
		b.ReportMetric(float64(sdpWins), "sdp-wins")
		b.ReportMetric(float64(res.Excluded), "solved-in-racing")
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks.

func BenchmarkLPSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prob := lp.NewProblem()
	n, m := 60, 40
	for j := 0; j < n; j++ {
		prob.AddVar(0, 10, rng.NormFloat64())
	}
	for i := 0; i < m; i++ {
		var coefs []lp.Nonzero
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				coefs = append(coefs, lp.Nonzero{Col: j, Val: rng.NormFloat64()})
			}
		}
		prob.AddRow(lp.LE, 5+rng.Float64()*10, coefs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := lp.NewSolver(prob).Solve(); sol.Status != lp.Optimal {
			b.Fatal("LP not optimal")
		}
	}
}

func BenchmarkLPWarmStartDive(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	prob := lp.NewProblem()
	n := 40
	for j := 0; j < n; j++ {
		prob.AddVar(0, 1, rng.NormFloat64())
	}
	for i := 0; i < 30; i++ {
		var coefs []lp.Nonzero
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.4 {
				coefs = append(coefs, lp.Nonzero{Col: j, Val: rng.Float64()})
			}
		}
		prob.AddRow(lp.LE, 3, coefs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := lp.NewSolver(prob)
		s.Solve()
		for d := 0; d < 10; d++ {
			s.SetBound(d%n, 0, 0) // fix a variable, dual re-solve
			s.Solve()
		}
	}
}

func BenchmarkEigen(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := linalg.NewSym(30)
	for i := 0; i < 30; i++ {
		for j := i; j < 30; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.Eigen(s)
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	type arcdef struct {
		u, v int
		c    float64
	}
	var arcs []arcdef
	n := 200
	for i := 0; i < 5*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			arcs = append(arcs, arcdef{u, v, rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := maxflow.New(n)
		for _, a := range arcs {
			nw.AddArc(a.u, a.v, a.c)
		}
		nw.MaxFlow(0, n-1)
	}
}

func BenchmarkDualAscent(b *testing.B) {
	inst := puc.Hypercube(6, true, 1)
	root := inst.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steiner.DualAscent(inst, root)
	}
}

func BenchmarkSteinerReductions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst := puc.Bipartite(16, 80, 3, false, 52)
		b.StartTimer()
		steiner.Reduce(inst, 0)
	}
}

func BenchmarkSteinerRootLP(b *testing.B) {
	// One full root-node solve (dual ascent + LP + cut loop) on a
	// PUC-analogue — the unit of work the paper's "root time" row counts.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst := puc.CodeCover(3, 4, 8, true, 341)
		def := &steiner.Def{}
		data, _ := def.Presolve(inst, scip.Infinity)
		prob := def.BuildModel(data.(*steiner.SPG))
		plug := steiner.NewPlugins()
		plug.Def = def
		set := steiner.DefaultSettings()
		set.NodeLimit = 1
		b.StartTimer()
		scip.NewSolver(prob, set, plug).Solve()
	}
}
