package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
	"repro/internal/ug/comm"
	"repro/internal/ug/comm/net/nettest"
)

func knapsackProb(values, weights []float64, capacity float64) *scip.Prob {
	p := &scip.Prob{Name: "knapsack", IntegralObj: true}
	var coefs []lp.Nonzero
	for i := range values {
		j := p.AddVar("x", 0, 1, -values[i], scip.Binary)
		coefs = append(coefs, lp.Nonzero{Col: j, Val: weights[i]})
	}
	p.AddRow("cap", lp.LE, capacity, coefs)
	return p
}

// bruteKnapsack computes the exact optimum by dynamic programming over
// the (integral) capacity.
func bruteKnapsack(values, weights []float64, capacity float64) float64 {
	cap := int(capacity)
	dp := make([]float64, cap+1)
	for i := range values {
		w := int(weights[i])
		for c := cap; c >= w; c-- {
			if v := dp[c-w] + values[i]; v > dp[c] {
				dp[c] = v
			}
		}
	}
	best := 0.0
	for _, v := range dp {
		if v > best {
			best = v
		}
	}
	return best
}

func randomInstance(seed int64, n int) (values, weights []float64, capacity float64) {
	rng := rand.New(rand.NewSource(seed))
	values = make([]float64, n)
	weights = make([]float64, n)
	var tot float64
	for i := 0; i < n; i++ {
		values[i] = float64(1 + rng.Intn(40))
		weights[i] = float64(1 + rng.Intn(20))
		tot += weights[i]
	}
	return values, weights, math.Floor(tot / 2)
}

func mipApp(values, weights []float64, capacity float64) App {
	return App{
		Name: "mip",
		Data: knapsackProb(values, weights, capacity),
	}
}

// SolveDistributed is SolveParallel over a loopback comm/net roster
// (nettest.Run): every payload — subproblems with their branching
// decisions, solutions, status reports — crosses the real transport's
// frame codec, and every rank builds and presolves its own App (mkApp
// is called once per rank: a ProblemDef may keep presolve state), as
// each process of a distributed run does. Exported for the external
// tests in this directory that put a full application through the wire.
func SolveDistributed(t testing.TB, mkApp func() App, workers int, cfg ug.Config) (res *ug.Result, f *Factory, err error) {
	t.Helper()
	f = NewFactory(mkApp())
	nettest.Run(t, workers, nil, nil,
		func(rank int, wc comm.Comm, _ *obs.Tracer) {
			wf := NewFactory(mkApp())
			if _, _, err := wf.GlobalPresolve(); err != nil {
				t.Errorf("worker %d presolve: %v", rank, err)
				return
			}
			ug.RunWorker(rank, wc, wf, nil)
		},
		func(c comm.Comm) {
			cfg.Workers, cfg.Comm, cfg.RemoteWorkers = workers, c, true
			res, err = ug.Run(f, cfg)
		})
	return res, f, err
}

// Parallel solve must match brute force for 1, 2 and 4 workers on both
// communicators — the FiberSCIP (shared-memory channels) and ParaSCIP
// (distributed: the comm/net transport on 127.0.0.1) configurations of
// the same code.
func TestParallelKnapsackMatchesBruteForce(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		values, weights, capacity := randomInstance(100+trial, 14)
		want := bruteKnapsack(values, weights, capacity)
		app := func() App { return mipApp(values, weights, capacity) }
		for _, workers := range []int{1, 2, 4} {
			for _, solve := range []func() (*ug.Result, *Factory, error){
				func() (*ug.Result, *Factory, error) { return SolveParallel(app(), ug.Config{Workers: workers}) },
				func() (*ug.Result, *Factory, error) { return SolveDistributed(t, app, workers, ug.Config{}) },
			} {
				res, _, err := solve()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Optimal {
					t.Fatalf("trial %d workers %d: not optimal: %+v", trial, workers, res)
				}
				if math.Abs(-res.Obj-want) > 1e-6 {
					t.Fatalf("trial %d workers %d: obj %v want %v", trial, workers, -res.Obj, want)
				}
			}
		}
	}
}

func TestRacingRampUp(t *testing.T) {
	values, weights, capacity := randomInstance(7, 15)
	want := bruteKnapsack(values, weights, capacity)
	app := mipApp(values, weights, capacity)
	// Racing ladder with varied settings.
	for i := 0; i < 4; i++ {
		set := scip.DefaultSettings()
		set.Seed = int64(i)
		set.PermuteTieBreak = i > 0
		if i%2 == 1 {
			set.NodeSel = scip.DepthFirst
		}
		set.Name = "set" + string(rune('A'+i))
		app.Settings = append(app.Settings, set)
	}
	res, _, err := SolveParallel(app, ug.Config{
		Workers:    4,
		RampUp:     ug.RampUpRacing,
		RacingTime: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(-res.Obj-want) > 1e-6 {
		t.Fatalf("racing result: %+v want %v", res, want)
	}
	if res.Stats.RacingWinner < 0 {
		t.Fatal("no racing winner recorded")
	}
	if res.Stats.RacingWinnerName == "" {
		t.Fatal("winner name missing")
	}
}

func TestStatsSanity(t *testing.T) {
	values, weights, capacity := randomInstance(13, 16)
	res, _, err := SolveParallel(mipApp(values, weights, capacity), ug.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MaxActive < 1 || st.MaxActive > 3 {
		t.Fatalf("MaxActive = %d", st.MaxActive)
	}
	if st.Dispatched < 1 {
		t.Fatalf("Dispatched = %d", st.Dispatched)
	}
	if st.TotalNodes < 1 {
		t.Fatalf("TotalNodes = %d", st.TotalNodes)
	}
	if len(st.IdleRatio) != 3 {
		t.Fatalf("IdleRatio = %v", st.IdleRatio)
	}
	for _, r := range st.IdleRatio {
		if r < 0 || r > 1 {
			t.Fatalf("idle ratio out of range: %v", st.IdleRatio)
		}
	}
	if st.Time <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestInitialSolutionSeedsIncumbent(t *testing.T) {
	values, weights, capacity := randomInstance(5, 12)
	want := bruteKnapsack(values, weights, capacity)
	// Build a feasible (greedy) solution as the seed.
	x := make([]float64, len(values))
	var w float64
	for i := range values {
		if w+weights[i] <= capacity {
			x[i] = 1
			w += weights[i]
		}
	}
	var obj float64
	for i := range values {
		obj -= values[i] * x[i]
	}
	payload, err := scip.EncodeSol(&scip.Sol{Obj: obj, X: x})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := SolveParallel(mipApp(values, weights, capacity), ug.Config{
		Workers:         2,
		InitialSolution: &ug.Solution{Obj: obj, Payload: payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(-res.Obj-want) > 1e-6 {
		t.Fatalf("seeded solve: obj %v want %v", -res.Obj, want)
	}
}

// Checkpoint + restart: a time-limited run saves primitive nodes; a
// restarted run from the checkpoint finishes and finds the optimum.
func TestCheckpointRestart(t *testing.T) {
	values, weights, capacity := randomInstance(23, 22)
	want := bruteKnapsack(values, weights, capacity)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.gob")

	// Make the first run slow enough to be interrupted: depth-first, no
	// heuristics, tiny time limit.
	hard := scip.DefaultSettings()
	hard.HeurFreq = 0
	hard.NodeSel = scip.DepthFirst
	hard.SepaRounds = 0
	app := mipApp(values, weights, capacity)
	app.Settings = []scip.Settings{hard}

	res1, _, err := SolveParallel(app, ug.Config{
		Workers:         2,
		TimeLimit:       0.05,
		CheckpointPath:  ckpt,
		CheckpointEvery: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	ck, err := ug.LoadCheckpointInfo(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Optimal {
		// Finished before the limit; restart should still succeed from the
		// final (possibly empty) checkpoint only if pool is nonempty.
		if len(ck.Pool) == 0 {
			return
		}
	}

	res2, _, err := SolveParallel(app, ug.Config{
		Workers:     2,
		RestartFrom: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Optimal {
		t.Fatalf("restarted run not optimal: %+v", res2)
	}
	if math.Abs(-res2.Obj-want) > 1e-6 {
		t.Fatalf("restarted obj %v want %v", -res2.Obj, want)
	}
	if !res2.Stats.Restarted {
		t.Fatal("restart flag not set")
	}
}

func TestSolveSequentialBaseline(t *testing.T) {
	values, weights, capacity := randomInstance(3, 12)
	want := bruteKnapsack(values, weights, capacity)
	s, st, off := SolveSequential(mipApp(values, weights, capacity), scip.DefaultSettings())
	if st != scip.StatusOptimal {
		t.Fatalf("status %v", st)
	}
	if math.Abs(-(s.Incumbent().Obj+off)-want) > 1e-6 {
		t.Fatalf("obj %v want %v", -s.Incumbent().Obj, want)
	}
}

// Collect mode must be exercised when more workers than initial nodes
// exist: the run completes and ships nodes through the coordinator.
func TestCollectModeTransfersNodes(t *testing.T) {
	// Strongly correlated knapsack: tight LP bound but an exploding tree,
	// so ramp-up genuinely needs node collection.
	rng := rand.New(rand.NewSource(41))
	n := 30
	values := make([]float64, n)
	weights := make([]float64, n)
	var tot float64
	for i := 0; i < n; i++ {
		weights[i] = float64(10 + rng.Intn(90))
		values[i] = weights[i] + 50
		tot += weights[i]
	}
	capacity := math.Floor(tot / 2)
	want := bruteKnapsack(values, weights, capacity)
	hard := scip.DefaultSettings()
	hard.HeurFreq = 0
	hard.SepaRounds = 0
	hard.NodeSel = scip.DepthFirst
	app := mipApp(values, weights, capacity)
	app.Settings = []scip.Settings{hard}
	res, _, err := SolveParallel(app, ug.Config{
		Workers:        4,
		StatusInterval: 1e-4,
		ShipInterval:   1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(-res.Obj-want) > 1e-6 {
		t.Fatalf("obj %v want %v", -res.Obj, want)
	}
	// With 4 workers and a single root, ramp-up requires collection.
	if res.Stats.Dispatched < 2 && res.Stats.TotalNodes > 10 {
		t.Fatalf("expected node transfers, stats: %+v", res.Stats)
	}
}

func TestFactoryMisuse(t *testing.T) {
	f := NewFactory(App{Name: "bad", Data: 42})
	if _, _, err := f.GlobalPresolve(); err == nil {
		t.Fatal("expected error for non-Prob data without ProblemDef")
	}
}
