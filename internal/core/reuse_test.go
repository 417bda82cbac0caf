package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/scip"
	"repro/internal/ug"
)

// countingFactory counts the Solve calls of the workers it hands out.
type countingFactory struct {
	*Factory
	solves atomic.Int64
}

func (f *countingFactory) CreateWorker(idx int) ug.WorkerSolver {
	return countingWorker{f.Factory.CreateWorker(idx), &f.solves}
}

type countingWorker struct {
	ug.WorkerSolver
	solves *atomic.Int64
}

func (w countingWorker) Solve(sub *ug.Subproblem, sess *ug.Session) ug.Outcome {
	w.solves.Add(1)
	return w.WorkerSolver.Solve(sub, sess)
}

// App.MakePlugins runs exactly once per WorkerSolver.Solve, first thing,
// even though the worker reuses its scip solver: decorators that hand
// per-solve state to the plugin set rely on it. Racing ramp-up sends the
// root to every worker, so the run dispatches at least once per worker
// however fast one of them finishes the tree.
func TestMakePluginsOncePerSolve(t *testing.T) {
	// Strongly correlated knapsack: an exploding tree that is shared out.
	rng := rand.New(rand.NewSource(41))
	values, weights := make([]float64, 26), make([]float64, 26)
	var tot float64
	for i := range weights {
		weights[i] = float64(10 + rng.Intn(90))
		values[i] = weights[i] + 50
		tot += weights[i]
	}
	app := mipApp(values, weights, math.Floor(tot/2))
	hard := scip.DefaultSettings()
	hard.HeurFreq = 0
	hard.SepaRounds = 0
	hard.NodeSel = scip.DepthFirst
	app.Settings = []scip.Settings{hard}
	var made atomic.Int64
	app.MakePlugins = func() *scip.Plugins {
		made.Add(1)
		return &scip.Plugins{}
	}
	f := &countingFactory{Factory: NewFactory(app)}
	res, err := ug.Run(f, ug.Config{Workers: 3, RampUp: ug.RampUpRacing, RacingTime: 0.01,
		StatusInterval: 1e-4, ShipInterval: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("not optimal: %+v", res)
	}
	if res.Stats.Dispatched < 2 {
		t.Fatalf("only %d dispatches: nothing reused", res.Stats.Dispatched)
	}
	if made.Load() != f.solves.Load() || f.solves.Load() != res.Stats.Dispatched {
		t.Fatalf("%d MakePlugins calls for %d Solve calls and %d dispatches",
			made.Load(), f.solves.Load(), res.Stats.Dispatched)
	}

	before := made.Load()
	out := f.CreateWorker(0).Solve(&ug.Subproblem{Payload: []byte("not a subproblem")}, nil)
	if made.Load() != before+1 || out != (ug.Outcome{}) {
		t.Fatalf("undecodable payload: %d MakePlugins calls, outcome %+v; want 1 and a zero outcome",
			made.Load()-before, out)
	}
}
