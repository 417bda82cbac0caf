package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
)

// TestUGSteinerOverNet is the distributed-memory path for a full
// application: everything ug[SCIP-Jack,*] transfers — including
// vertex-branching Decisions inside shipped subproblems — must survive
// the wire (scip's payload encoding inside comm/net's frames on
// 127.0.0.1) and still reach the Dreyfus–Wagner optimum.
func TestUGSteinerOverNet(t *testing.T) {
	s := puc.HypercubeT(4, 7, true, 3) // ~50 nodes, ~20 of them shipped
	want := s.SolveDW()
	res, factory, err := core.SolveDistributed(t, func() core.App { return steiner.NewApp(s.Clone()) }, 2, ug.Config{
		StatusInterval: 1e-3,
		ShipInterval:   1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(res.Obj+factory.ObjOffset()-want) > 1e-6 {
		t.Fatalf("net run: %+v want %v", res, want)
	}
	// A shipped node is a subproblem whose payload carries the branching
	// decisions that define it; without one the wire saw only the root.
	if res.Stats.Collected == 0 || res.Stats.Dispatched < 2 {
		t.Fatalf("no branched subproblem crossed the wire: %d collected, %d dispatched",
			res.Stats.Collected, res.Stats.Dispatched)
	}
}
