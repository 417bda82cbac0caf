package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/ug"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestShiftedGeoMean(t *testing.T) {
	// exp(mean(log(0.1+0.1), log(0.7+0.1))) − 0.1 = sqrt(0.16) − 0.1.
	if got := experiments.ShiftedGeoMean([]float64{0.1, 0.7}, 0.1); !near(got, 0.3) {
		t.Errorf("sgm = %v, want 0.3", got)
	}
	if got := experiments.ShiftedGeoMean([]float64{2}, 0.1); !near(got, 2) {
		t.Errorf("sgm of one value = %v, want 2", got)
	}
	// The shift damps small values: doubling a 10 ms solve moves the
	// mean far less than doubling a 1 s solve.
	base := experiments.ShiftedGeoMean([]float64{0.01, 1}, 0.1)
	small := experiments.ShiftedGeoMean([]float64{0.02, 1}, 0.1) - base
	large := experiments.ShiftedGeoMean([]float64{0.01, 2}, 0.1) - base
	if small <= 0 || small*5 > large {
		t.Errorf("shift does not damp small values: +%v vs +%v", small, large)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// p90 needs ten samples beyond it: 100 samples are just enough, 99
	// are not, the 8 of a solver pass have none, the 142 of a serve_mix
	// pass have 14.
	for n, want := range map[int]int{100: 10, 99: 9, 8: 0, 142: 14} {
		if got := beyond(n, 0.9); got != want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 1.1, 1.3], n=4) == [1.0, 1.1, 1.3]
	q1, q3 = quartiles([]float64{1.0, 1.1, 1.3})
	if !near(q1, 1.0) || !near(q3, 1.3) {
		t.Errorf("quartiles = %v, %v, want 1.0, 1.3", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPrimalIntegral(t *testing.T) {
	// Gap 1 for 2 s, then 20 % for 3 s, then optimal for 5 s.
	got := primalIntegral([]float64{2, 5}, []float64{120, 100}, 10, 100)
	if !near(got, 2+0.2*3) {
		t.Errorf("integral = %v, want 2.6", got)
	}
	if got := primalIntegral(nil, nil, 4, 100); !near(got, 4) {
		t.Errorf("no incumbent: integral = %v, want the whole 4 s", got)
	}
	// An incumbent worse than twice the optimum still counts as gap 1.
	if got := primalIntegral([]float64{1}, []float64{500}, 3, 100); !near(got, 3) {
		t.Errorf("capped gap: integral = %v, want 3", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		// Two ranks overlap on [30,50]: the union covers [10,70].
		{ID: 2, Parent: 1, Name: "worker.solve", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "worker.solve", Start: 30, End: 70},
		{ID: 4, Parent: 2, Name: "steiner.sepa", Start: 20, End: 30},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Parent: 3, Name: "steiner.heur", Start: 60, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"op":           40e-9, // 100 − |[10,70]|
		"worker.solve": 60e-9, // (40 − 10) + (40 − 10)
		"steiner.sepa": 10e-9,
		"steiner.heur": 30e-9,
	}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	sum, calls := totals(spans)
	if !near(sum["worker.solve"], 80e-9) || calls["worker.solve"] != 2 {
		t.Errorf("totals = %v / %v", sum["worker.solve"], calls["worker.solve"])
	}
}

func TestSeedSelectsDeterministically(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	names := func(es []*Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.Name
		}
		return out
	}
	for _, w := range workloads {
		pool := cat.Workloads[w]
		if len(pool.Main) == 0 || len(pool.Holdout) < len(pool.Main) {
			t.Errorf("%s: main %d, holdout %d: the pool must be at least twice the list", w, len(pool.Main), len(pool.Holdout))
		}
		a, err := cat.pick(w, "main", 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := cat.pick(w, "main", 7)
		c, _ := cat.pick(w, "main", 8)
		if !reflect.DeepEqual(names(a), names(b)) {
			t.Errorf("%s: the same seed gave two orders", w)
		}
		// Another seed runs the same instances in another order.
		sa, sc := names(a), names(c)
		if len(sa) > 3 && reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 gave the same order", w)
		}
		sort.Strings(sa)
		sort.Strings(sc)
		want := append([]string(nil), pool.Main...)
		sort.Strings(want)
		if !reflect.DeepEqual(sa, want) || !reflect.DeepEqual(sc, want) {
			t.Errorf("%s: a seed changed which instances run", w)
		}
		if _, err := cat.pick(w, "holdout", 7); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
	if _, err := cat.pick("nope", "main", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestServeMixIsTheSameWorkForEverySeed(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	count := func(seed int64) (map[string]int, float64, int) {
		entries, err := cat.pick("serve_mix", "main", seed)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := buildMix(entries, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		per := map[string]int{}
		hits := 0
		seen := map[string]bool{}
		for _, j := range jobs {
			per[j.e.Name]++
			if j.hit {
				hits++
				if !seen[string(j.body)] {
					t.Errorf("seed %d: a repeat of %s comes before its first submission", seed, j.e.Name)
				}
			} else if seen[string(j.body)] {
				t.Errorf("seed %d: a fresh submission of %s repeats an earlier body", seed, j.e.Name)
			}
			seen[string(j.body)] = true
		}
		return per, float64(hits) / float64(len(jobs)), len(jobs)
	}
	per1, hit1, n1 := count(1)
	per2, hit2, _ := count(2)
	if !reflect.DeepEqual(per1, per2) || hit1 != hit2 {
		t.Errorf("seeds 1 and 2 lay out different work: %v/%v vs %v/%v", per1, hit1, per2, hit2)
	}
	if n1 < 120 {
		t.Errorf("%d jobs a pass, want at least 120", n1)
	}
	if hit1 < 0.4 || hit1 > 0.6 {
		t.Errorf("expected cache-hit share %v, want 0.4 to 0.6", hit1)
	}
}

func TestOutputCarriesEveryDeclaredMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	res := assemble([]record{{Kind: "plan", Ops: 1}, {Kind: "start"}, {Kind: "op", Op: &opResult{Name: "x", Seconds: 1, OK: true}},
		{Kind: "pass", Sec: 1, Alloc: 2}, {Kind: "setup", Sec: 3}, {Kind: "layers", Layers: map[string]float64{}}, {Kind: "done"}})
	for _, traced := range []bool{false, true} {
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.contractLine(traced)), &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("traced=%v: a contract key is missing", traced)
		}
		want := map[string]string{}
		if traced {
			for _, d := range bench.PerLayer {
				want[d.Name] = d.Unit
			}
		} else {
			for _, d := range bench.EndToEnd {
				want[d.Name] = d.Unit
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json declares %d", traced, len(line.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := line.Metrics[name]
			if !ok || got.Value == nil || got.Unit != unit {
				t.Errorf("traced=%v: metric %s [%s] missing or with unit %q", traced, name, unit, got.Unit)
			}
		}
	}
	if !res.Correct || res.Attempted != 1 || res.Failed != 0 || res.Metrics["setup_s"] != 3 || res.Metrics["alloc_mb"] != 2 {
		t.Errorf("assemble: %+v", res)
	}
}

func TestKilledRunCountsUnfinishedOperationsAsFailed(t *testing.T) {
	ok := &opResult{Name: "a", Seconds: 1, OK: true}
	// Two passes started, three operations each; the child was killed
	// in the second pass after one operation.
	res := assemble([]record{{Kind: "plan", Ops: 3}, {Kind: "start"}, {Kind: "op", Op: ok}, {Kind: "op", Op: ok}, {Kind: "op", Op: ok},
		{Kind: "pass", Sec: 3}, {Kind: "start", Pass: 1}, {Kind: "op", Pass: 1, Op: ok}})
	if res.Correct || res.Attempted != 6 || res.Failed != 2 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 6 2", res.Correct, res.Attempted, res.Failed)
	}
	// Killed during set-up: nothing ran, and that is one failed attempt.
	res = assemble(nil)
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("empty report: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	// A wrong answer fails the operation even though the run finished.
	res = assemble([]record{{Kind: "plan", Ops: 1}, {Kind: "start"}, {Kind: "op", Op: &opResult{Name: "a", Why: "objective differs"}}, {Kind: "pass", Sec: 1}, {Kind: "done"}})
	if res.Correct || res.Failed != 1 || len(res.Failures) != 1 {
		t.Errorf("wrong answer: %+v", res)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bench := &benchmarkJSON{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"solve_sgm_s","unit":"s","better":"lower","bound":0.1},
		{"name":"jobs_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), bench); err != nil {
		t.Fatal(err)
	}
	run := func(sgm, rate float64, failed int) *Result {
		return &Result{Workload: "stp_seq", Attempted: 10, Failed: failed, Metrics: map[string]float64{"solve_sgm_s": sgm, "jobs_per_s": rate}}
	}
	base := []*Result{run(1.00, 10, 0), run(1.01, 10, 0), run(0.99, 10, 0)}
	cases := []struct {
		name  string
		b     []*Result
		worse bool
	}{
		{"same", []*Result{run(1.02, 10.1, 0), run(1.00, 9.9, 0), run(1.01, 10, 0)}, false},
		{"slower", []*Result{run(1.2, 10, 0), run(1.21, 10, 0), run(1.19, 10, 0)}, true},
		{"lower throughput", []*Result{run(1, 8, 0), run(1, 8.1, 0), run(1, 7.9, 0)}, true},
		{"a failure", []*Result{run(1, 10, 1), run(1, 10, 1), run(1, 10, 1)}, true},
		{"too noisy to tell", []*Result{run(0.8, 10, 0), run(1.0, 10, 0), run(1.25, 10, 0)}, false},
	}
	for _, c := range cases {
		var out writerFunc = func(p []byte) (int, error) { return len(p), nil }
		if got := compare(out, bench, base, c.b); got != c.worse {
			t.Errorf("%s: worse = %v, want %v", c.name, got, c.worse)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDecoratorsLeaveTheSolveAlone is the one that matters: with every
// plugin decorated and the Poll sampler installed, a sequential solve
// visits the same nodes, runs the same LP iterations and adds the same
// cuts as a bare one; and a parallel solve through the WorkerSolver and
// Comm decorators still proves the same optimum.
func TestDecoratorsLeaveTheSolveAlone(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var e *Entry
	for _, name := range cat.Workloads["serve_mix"].Main {
		if c := cat.entry(name); c.IsSTP() && (e == nil || c.Band["serve_mix"] < e.Band["serve_mix"]) {
			e = c
		}
	}
	if e == nil {
		t.Fatal("no small Steiner instance in the catalogue")
	}
	g, err := e.BuildSTP()
	if err != nil {
		t.Fatal(err)
	}
	bare := func() scip.Stats {
		s, st, _ := core.SolveSequential(steiner.NewApp(g), steiner.DefaultSettings())
		if st != scip.StatusOptimal {
			t.Fatalf("bare solve: %v", st)
		}
		return s.Stats
	}()

	tr := newTrace()
	app, set, mod, err := seqApp("stp_seq", e)
	if err != nil {
		t.Fatal(err)
	}
	r := solveSeq(e, app, set, mod, tr)
	if !r.OK {
		t.Fatalf("decorated solve failed: %s", r.Why)
	}
	if r.Nodes != bare.Nodes || r.LPIters != bare.LPIterations || int64(tr.get("steiner.cuts")) != bare.CutsAdded {
		t.Errorf("decorated solve: nodes %d LP iterations %d cuts %v; bare solve: %d %d %d",
			r.Nodes, r.LPIters, tr.get("steiner.cuts"), bare.Nodes, bare.LPIterations, bare.CutsAdded)
	}
	_, calls := totals(tr.spans)
	if calls["steiner.sepa"] == 0 || calls["solve"] != 1 || calls["steiner.presolve"] != 1 {
		t.Errorf("the decorators recorded no spans: %v", calls)
	}
	if r.PrimalIntegral <= 0 || r.PrimalIntegral > r.Seconds {
		t.Errorf("primal integral %v outside (0, %v]", r.PrimalIntegral, r.Seconds)
	}

	tr = newTrace()
	done := make(chan opResult, 1)
	go func() { done <- solveUG(e, g, tr) }()
	select {
	case pr := <-done:
		if !pr.OK {
			t.Fatalf("decorated parallel solve failed: %s", pr.Why)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("decorated parallel solve hangs")
	}
	_, calls = totals(tr.spans)
	if calls["worker.solve"] == 0 || tr.get("comm.msgs") == 0 || tr.get("ug.dispatched") == 0 {
		t.Errorf("parallel decorators recorded nothing: spans %v, msgs %v", calls, tr.get("comm.msgs"))
	}
	for _, s := range tr.spans {
		if s.Name == "steiner.sepa" && tr.spans[s.Parent-1].Name != "worker.solve" {
			t.Fatalf("a plugin span hangs under %q, want worker.solve", tr.spans[s.Parent-1].Name)
		}
	}

	// And ug itself is left alone: same optimum without any decorator.
	res, f, err := core.SolveParallel(steiner.NewApp(g), ug.Config{Workers: 2})
	if err != nil || !res.Optimal || !e.matchesOpt(res.Obj+f.ObjOffset()) {
		t.Errorf("bare parallel solve: %v %+v", err, res)
	}
}
