package sdp_test

import (
	"math"
	"testing"

	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/sdp"
)

// TestRootSchedulePin solves the root relaxation of the 16 instances of
// the benchmark's misdp_sdp workload (main and hold-out pool) and holds
// the long-step μ schedule to the tightly centred one it replaced: obj
// and gap are that schedule's Obj and UpperBound − Obj. The μ grid ends
// at the same μ_F polish, so the objective must agree to 1e-9; the
// certificate may loosen by at most 2×; and the schedule must finish
// within 60 Newton steps, where the tight one took 76–88.
func TestRootSchedulePin(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        *misdp.MISDP
		obj, gap float64
	}{
		{"cls-8-10-3-3", testsets.CLS(8, 10, 3, 3), -0.030629171544334911, 6.61e-06},
		{"cls-10-12-3-4", testsets.CLS(10, 12, 3, 4), -0.0089282523181574529, 8.06e-05},
		{"cls-10-12-3-7", testsets.CLS(10, 12, 3, 7), -0.007541049225364178, 6.35e-05},
		{"ttd-4-12-2-6", testsets.TTD(4, 12, 2, 6), -11.491219437498499, 1.13e-05},
		{"ttd-4-10-2-2", testsets.TTD(4, 10, 2, 2), -9.5536727564926558, 8.50e-06},
		{"ttd-5-14-3-2", testsets.TTD(5, 14, 3, 2), -28.042141725121645, 2.56e-05},
		{"ttd-6-16-3-8", testsets.TTD(6, 16, 3, 8), -23.460565865717424, 1.66e-05},
		{"mkp-10-4-7", testsets.MkP(10, 4, 7), -14.962912676472916, 9.22e-05},
		{"cls-8-10-3-8", testsets.CLS(8, 10, 3, 8), -0.059694250718761395, 6.39e-05},
		{"mkp-7-3-6", testsets.MkP(7, 3, 6), -16.788755452783384, 5.91e-05},
		{"cls-9-12-4-3", testsets.CLS(9, 12, 4, 3), -0.0063552145160534106, 6.23e-05},
		{"cls-9-12-4-5", testsets.CLS(9, 12, 4, 5), -0.040606597536065145, 7.57e-06},
		{"ttd-5-16-3-6", testsets.TTD(5, 16, 3, 6), -30.038440005676303, 1.64e-05},
		{"mkp-8-3-1", testsets.MkP(8, 3, 1), -19.788399901048841, 5.91e-05},
		{"mkp-9-3-6", testsets.MkP(9, 3, 6), -27.100796260616409, 7.48e-05},
		{"mkp-10-3-16", testsets.MkP(10, 3, 16), -30.923700450306701, 9.24e-05},
	} {
		r := sdp.Solve(rootProblem(tc.p), sdp.Options{})
		if r.Status != sdp.Solved {
			t.Errorf("%s: status %v", tc.name, r.Status)
			continue
		}
		if math.Abs(r.Obj-tc.obj) > 1e-9 {
			t.Errorf("%s: root obj %.17g, tightly centred %.17g", tc.name, r.Obj, tc.obj)
		}
		if r.Iters > 60 {
			t.Errorf("%s: %d Newton steps, want at most 60", tc.name, r.Iters)
		}
		if gap := r.UpperBound - r.Obj; gap > 2*tc.gap {
			t.Errorf("%s: certificate gap %.3g, more than twice the tightly centred %.3g", tc.name, gap, tc.gap)
		}
	}
}
