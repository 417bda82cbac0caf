package sdp_test

import (
	"testing"

	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/sdp"
)

// rootInstances are one root relaxation per family of the benchmark's
// misdp_sdp workload: one off-diagonal pair per coefficient (Mk-P), dense
// rank-one coefficients (TTD), arrow columns plus linear rows (CLS).
var rootInstances = []struct {
	name string
	p    *misdp.MISDP
}{
	{"MkP", testsets.MkP(10, 4, 7)},
	{"TTD", testsets.TTD(6, 16, 3, 8)},
	{"CLS", testsets.CLS(10, 12, 3, 4)},
}

func rootProblem(p *misdp.MISDP) *sdp.Problem {
	return &sdp.Problem{M: p.M, B: p.B, Lo: p.Lo, Up: p.Up, Blocks: p.Blocks, Rows: p.Rows}
}

// BenchmarkSDPSolveRoot measures a whole root-relaxation Solve. This
// file uses the exported surface only, so that scripts/bench_hot.sh can
// overlay it onto a baseline commit for the "before" row.
func BenchmarkSDPSolveRoot(b *testing.B) {
	for _, in := range rootInstances {
		b.Run(in.name, func(b *testing.B) {
			p := rootProblem(in.p)
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				res := sdp.Solve(p, sdp.Options{})
				if res.Status != sdp.Solved {
					b.Fatalf("status %v", res.Status)
				}
				iters += res.Iters
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}
