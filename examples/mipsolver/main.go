// MIP example: the FiberSCIP analogue. A plain mixed-integer program —
// a generalized assignment problem — is solved by the scip framework
// sequentially and then in parallel through UG over the shared-memory
// communicator (ug[SCIP,C++11]-style), demonstrating that the base solver
// is parallelized without any problem-specific glue. (The distributed,
// ug[SCIP,MPI]-style transport is comm/net; see `ugsteiner -net-procs`.)
package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/scip"
	"repro/internal/ug"
)

// buildGAP creates a generalized assignment problem: assign jobs to
// machines minimizing cost under machine capacities.
func buildGAP(jobs, machines int, seed int64) *scip.Prob {
	rng := rand.New(rand.NewSource(seed))
	p := &scip.Prob{Name: "gap", IntegralObj: true}
	x := make([][]int, jobs)
	for j := 0; j < jobs; j++ {
		x[j] = make([]int, machines)
		for m := 0; m < machines; m++ {
			cost := float64(1 + rng.Intn(20))
			x[j][m] = p.AddVar(fmt.Sprintf("x_%d_%d", j, m), 0, 1, cost, scip.Binary)
		}
	}
	// Every job on exactly one machine.
	for j := 0; j < jobs; j++ {
		var coefs []lp.Nonzero
		for m := 0; m < machines; m++ {
			coefs = append(coefs, lp.Nonzero{Col: x[j][m], Val: 1})
		}
		p.AddRow(fmt.Sprintf("assign_%d", j), lp.EQ, 1, coefs)
	}
	// Machine capacities.
	for m := 0; m < machines; m++ {
		var coefs []lp.Nonzero
		var total float64
		for j := 0; j < jobs; j++ {
			w := float64(1 + rng.Intn(9))
			total += w
			coefs = append(coefs, lp.Nonzero{Col: x[j][m], Val: w})
		}
		p.AddRow(fmt.Sprintf("cap_%d", m), lp.LE, total/float64(machines)+6, coefs)
	}
	return p
}

func main() {
	prob := buildGAP(14, 4, 7)

	start := time.Now()
	seq := scip.NewSolver(prob, scip.DefaultSettings(), nil)
	st := seq.Solve()
	fmt.Printf("sequential:        status=%v cost=%g nodes=%d in %.2fs\n",
		st, seq.Incumbent().Obj, seq.Stats.Nodes, time.Since(start).Seconds())

	start = time.Now()
	res, _, err := core.SolveParallel(core.App{Name: "gap", Data: prob}, ug.Config{Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("parallel (4 ParaSolvers): optimal=%v cost=%g nodes=%d transferred=%d in %.2fs\n",
		res.Optimal, res.Obj, res.Stats.TotalNodes, res.Stats.Dispatched, time.Since(start).Seconds())
}
