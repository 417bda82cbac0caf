package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
)

// workloads lists the five workloads in the order `-workload all` runs
// them. BENCHMARK.json records why each was chosen.
var workloads = []string{"stp_seq", "misdp_sdp", "misdp_lp", "stp_ug", "serve_mix"}

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest measured passes a run makes, however
	// short -seconds is: every time is a median over passes.
	minPasses = 3
	// tracedRunPasses is how many untraced passes a -trace 1 run makes
	// before its traced pass; they give bench.trace_overhead_frac and
	// bench.pass_spread their base.
	tracedRunPasses = 2
)

// record is one line of the child's report to the runner.
type record struct {
	Kind   string             `json:"k"` // setup, plan, start, op, pass, layers, done
	Pass   int                `json:"pass"`
	Traced bool               `json:"traced,omitempty"`
	Ops    int                `json:"ops,omitempty"`      // plan: operations per pass
	Sec    float64            `json:"sec,omitempty"`      // setup or pass wall seconds
	Alloc  float64            `json:"alloc_mb,omitempty"` // pass: TotalAlloc delta
	Op     *opResult          `json:"op,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runner holds what set-up built: the workload's operations for one
// seed.
type runner struct {
	workload string
	seed     int64
	cat      *Catalog
	entries  []*Entry
	jobStats []jobStats // serve_mix: the last pass's client-side view
}

// newRunner is the set-up before the warm-up: load the catalogue, pick
// the workload's instances, generate each and check it against the
// catalogue's size record.
func newRunner(workload, set string, seed int64) (*runner, error) {
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	entries, err := cat.pick(workload, set, seed)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := e.checkSize(); err != nil {
			return nil, err
		}
	}
	return &runner{workload: workload, seed: seed, cat: cat, entries: entries}, nil
}

func (r *runner) opsPerPass() int {
	if r.workload != "serve_mix" {
		return len(r.entries)
	}
	n := 0
	for _, e := range r.entries {
		if e.IsSTP() {
			n += stpRepeats
		} else {
			n += misdpRepeats
		}
	}
	return n
}

// warmUp touches every code path of a pass on little work: the two
// quickest instances, or one job per spec. A full pass would triple the
// run's length for nothing — there is no JIT to warm, only the heap and
// the page cache.
func (r *runner) warmUp() error {
	var failed *opResult
	emit := func(o opResult) {
		if !o.OK && failed == nil {
			failed = &o
		}
	}
	if r.workload == "serve_mix" {
		var jobs []job
		for _, e := range r.entries {
			sp, err := serveSpec(e, 0)
			if err != nil {
				return err
			}
			body, err := json.Marshal(sp)
			if err != nil {
				return err
			}
			jobs = append(jobs, job{e: e, body: body})
		}
		if _, _, err := servePass(jobs, nil, emit); err != nil {
			return err
		}
	} else {
		quick := append([]*Entry(nil), r.entries...)
		sort.Slice(quick, func(i, j int) bool { return quick[i].Band[r.workload] < quick[j].Band[r.workload] })
		if _, _, err := r.solverPass(quick[:min(2, len(quick))], nil, emit); err != nil {
			return err
		}
	}
	if failed != nil {
		return fmt.Errorf("warm-up: %s: %s", failed.Name, failed.Why)
	}
	return nil
}

// pass runs every operation of the workload once and returns the wall
// time and the bytes allocated over exactly the operations.
func (r *runner) pass(n int, t *Trace, emit func(opResult)) (wall, allocMB float64, err error) {
	if r.workload != "serve_mix" {
		return r.solverPass(r.entries, t, emit)
	}
	jobs, err := buildMix(r.entries, r.seed, n)
	if err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wall, r.jobStats, err = servePass(jobs, t, emit)
	runtime.ReadMemStats(&after)
	return wall, float64(after.TotalAlloc-before.TotalAlloc) / 1e6, err
}

// solverPass solves entries in order. Instances are generated before
// the clock starts; MISDP presolve tightens its instance in place, so
// every pass gets fresh ones.
func (r *runner) solverPass(entries []*Entry, t *Trace, emit func(opResult)) (wall, allocMB float64, err error) {
	type seqOp struct {
		app core.App
		set scip.Settings
		mod string
	}
	seq := make([]seqOp, len(entries))
	graphs := make([]*steiner.SPG, len(entries))
	for i, e := range entries {
		if r.workload == "stp_ug" {
			graphs[i], err = e.BuildSTP()
		} else {
			seq[i].app, seq[i].set, seq[i].mod, err = seqApp(r.workload, e)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, e := range entries {
		if r.workload == "stp_ug" {
			emit(solveUG(e, graphs[i], t))
		} else {
			emit(solveSeq(e, seq[i].app, seq[i].set, seq[i].mod, t))
		}
	}
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return wall, float64(after.TotalAlloc-before.TotalAlloc) / 1e6, nil
}

// speedupVsSeq solves, once and sequentially, the stp_ug instances that
// stp_seq also runs, and returns their sequential time over their median
// parallel time from this run: what two ParaSolvers buy on this commit.
func (r *runner) speedupVsSeq(ugTimes map[string][]float64) (float64, error) {
	shared := map[string]bool{}
	for _, name := range r.cat.Workloads["stp_seq"].Main {
		shared[name] = true
	}
	var seq, par float64
	for _, e := range r.entries {
		if !shared[e.Name] {
			continue
		}
		app, set, mod, err := seqApp("stp_seq", e)
		if err != nil {
			return 0, err
		}
		seq += solveSeq(e, app, set, mod, nil).Seconds
		par += median(ugTimes[e.Name])
	}
	return ratio(seq, par), nil
}

// runChild is the measuring process. It reports to the runner line by
// line, so whatever finished before a kill still counts.
func runChild(workload, set string, seed int64, seconds float64, traced bool, start time.Time) error {
	var mu sync.Mutex
	enc := json.NewEncoder(os.Stdout)
	send := func(rec record) {
		mu.Lock()
		_ = enc.Encode(rec) // the runner treats a missing line as a failed operation
		mu.Unlock()
	}

	var r *runner
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start // the first set-up also pays for process start
		}
		var err error
		if r, err = newRunner(workload, set, seed); err != nil {
			return err
		}
		if err := r.warmUp(); err != nil {
			return err
		}
		send(record{Kind: "setup", Sec: time.Since(t0).Seconds()})
	}
	send(record{Kind: "plan", Ops: r.opsPerPass()})

	var walls []float64
	opTimes := map[string][]float64{}
	t0 := time.Now()
	for n := 0; ; n++ {
		send(record{Kind: "start", Pass: n})
		wall, alloc, err := r.pass(n, nil, func(o opResult) {
			opTimes[o.Name] = append(opTimes[o.Name], o.Seconds)
			send(record{Kind: "op", Pass: n, Op: &o})
		})
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		send(record{Kind: "pass", Pass: n, Sec: wall, Alloc: alloc})
		if traced {
			if n+1 == tracedRunPasses {
				break
			}
			continue
		}
		// Stop when another pass would end further from -seconds than
		// this one did.
		if n+1 >= minPasses && time.Since(t0).Seconds()+mean(walls)/2 >= seconds {
			break
		}
	}
	if traced {
		n := len(walls)
		t := newTrace()
		send(record{Kind: "start", Pass: n, Traced: true})
		wall, _, err := r.pass(n, t, func(o opResult) { send(record{Kind: "op", Pass: n, Traced: true, Op: &o}) })
		if err != nil {
			return err
		}
		layers := r.layerMetrics(t, wall, walls)
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			layers["bench.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		if workload == "stp_ug" {
			if layers["ug.speedup_vs_seq"], err = r.speedupVsSeq(opTimes); err != nil {
				return err
			}
		}
		if err := runKernels(r.cat, seed, layers); err != nil {
			return err
		}
		if err := t.write(outDir(), workload); err != nil {
			return err
		}
		send(record{Kind: "layers", Layers: layers})
	}
	send(record{Kind: "done"})
	return nil
}

// outDir is bench/out under the checkout root, wherever the benchmark
// was started from.
func outDir() string { return filepath.Join(benchDir(), "out") }

// benchDir finds the benchmark's directory: the working directory is
// either the checkout root (bench/run.sh) or bench itself (go run -C).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "catalog.json")); err == nil {
		return "bench"
	}
	return "."
}
