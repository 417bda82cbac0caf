// Quickstart: build a small mixed-integer program directly against the
// scip framework's public API, solve it sequentially, then solve the
// same model in parallel through UG with two ParaSolvers — the minimal
// end-to-end tour of the stack.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/scip"
	"repro/internal/ug"
)

func main() {
	// A knapsack: max 10x1 + 13x2 + 7x3 + 8x4 + 2x5
	//             s.t. 5x1 + 6x2 + 3x3 + 4x4 + x5 ≤ 10, x binary.
	// (the framework minimizes, so values enter negated)
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 3, 4, 1}
	prob := &scip.Prob{Name: "quickstart-knapsack", IntegralObj: true}
	var coefs []lp.Nonzero
	for i := range values {
		j := prob.AddVar(fmt.Sprintf("x%d", i+1), 0, 1, -values[i], scip.Binary)
		coefs = append(coefs, lp.Nonzero{Col: j, Val: weights[i]})
	}
	prob.AddRow("capacity", lp.LE, 10, coefs)

	// 1. Sequential solve with the plugin-based B&B framework.
	solver := scip.NewSolver(prob, scip.DefaultSettings(), nil)
	status := solver.Solve()
	fmt.Printf("sequential: status=%v value=%g nodes=%d\n",
		status, -solver.Incumbent().Obj, solver.Stats.Nodes)

	// 2. The same model through UG — this is all the "glue" a plain MIP
	// needs (problem-specific solvers register plugins, see
	// internal/steiner/app.go and internal/misdp/app.go).
	res, _, err := core.SolveParallel(core.App{Name: "quickstart", Data: prob},
		ug.Config{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("parallel:   optimal=%v value=%g workers-max-active=%d\n",
		res.Optimal, -res.Obj, res.Stats.MaxActive)
	fmt.Printf("chosen items: ")
	sol := decode(res)
	for i := range values {
		if sol[i] > 0.5 {
			fmt.Printf("x%d ", i+1)
		}
	}
	fmt.Println()
}

// decode unpacks the UG solution payload back into variable values.
func decode(res *ug.Result) []float64 {
	s, err := scip.DecodeSol(res.Sol.Payload)
	if err != nil {
		panic(err)
	}
	return s.X
}
