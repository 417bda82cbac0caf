package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// Result is one run of one workload as the runner assembled it from the
// child's report. It is what -out appends to a file and -compare reads.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Set       string             `json:"set"`
	Env       Env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Killed    bool               `json:"killed,omitempty"` // the deadline ended the child
	Passes    int                `json:"passes"`
	Samples   int                `json:"samples"` // operations a pass, behind each pass's p50 and p90
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`          // end to end, tracing off
	Layers    map[string]float64 `json:"layers,omitempty"` // per layer, from a traced run
}

// deadline is the hard limit of one workload run: four times what the
// catalogue says the run takes on the seed commit, and inside the 180 s
// any run may take. scip checks its own time limit only between nodes,
// so only killing the process bounds a run.
func deadline(cat *Catalog, workload string, seconds float64, traced bool) time.Duration {
	var pass float64
	for _, name := range cat.Workloads[workload].Main {
		if e := cat.entry(name); e != nil {
			n := 1.0
			if workload == "serve_mix" {
				// Two lanes serve the repeats of every spec.
				n = misdpRepeats / 2
				if e.IsSTP() {
					n = stpRepeats / 2
				}
			}
			pass += n * e.Band[workload]
		}
	}
	expected := 3 + max(seconds, minPasses*pass)
	if traced {
		expected = 15 + (tracedRunPasses+2)*pass
	}
	return time.Duration(min(170, 4*expected) * float64(time.Second))
}

// runWorkload measures one workload in a child process and kills it at
// the deadline. Operations the child did not finish count as failed, and
// the result is assembled from whatever it reported.
func runWorkload(workload, set string, seed int64, seconds float64, traced bool) (*Result, error) {
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	if _, ok := cat.Workloads[workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline(cat, workload, seconds, traced))
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload, "-set", set,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	recs := readRecords(stdout)
	waitErr := cmd.Wait() // Wait returns once the killed or finished child has ended
	res := assemble(recs)
	res.Workload, res.Seed, res.Set, res.Env = workload, seed, set, envStamp()
	res.Killed = ctx.Err() != nil
	if waitErr != nil && !res.Killed {
		// The child said why on standard error; what it measured before
		// it gave up still stands, and the run is not correct.
		res.Failures = append(res.Failures, "measuring process: "+waitErr.Error())
	}
	return res, nil
}

func readRecords(r io.Reader) []record {
	var recs []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// assemble computes a run's counts and end-to-end metrics.
func assemble(recs []record) *Result {
	res := &Result{Metrics: map[string]float64{}}
	var (
		setups, allocs, rates   []float64
		p50s, p90s              []float64
		opsPerPass, started, ok int
		done                    bool
		bySpec                  = map[string][]float64{}
		integrals               = map[string][]float64{}
		byPass                  = map[int][]float64{}
		specs                   []string
	)
	for _, rec := range recs {
		switch rec.Kind {
		case "setup":
			setups = append(setups, rec.Sec)
		case "plan":
			opsPerPass = rec.Ops
		case "start":
			started++
		case "pass":
			// A finished pass: its own percentiles and rate.
			allocs = append(allocs, rec.Alloc)
			rates = append(rates, ratio(float64(len(byPass[rec.Pass])), rec.Sec))
			p50s = append(p50s, percentile(byPass[rec.Pass], 0.5))
			p90s = append(p90s, percentile(byPass[rec.Pass], 0.9))
		case "layers":
			res.Layers = rec.Layers
		case "done":
			done = true
		case "op":
			o := rec.Op
			if o.OK {
				ok++
			} else if len(res.Failures) < 10 {
				res.Failures = append(res.Failures, o.Name+": "+o.Why)
			}
			if rec.Traced {
				continue // end-to-end metrics never come from the traced pass
			}
			if _, seen := bySpec[o.Name]; !seen {
				specs = append(specs, o.Name)
			}
			bySpec[o.Name] = append(bySpec[o.Name], o.Seconds)
			integrals[o.Name] = append(integrals[o.Name], o.PrimalIntegral)
			byPass[rec.Pass] = append(byPass[rec.Pass], o.Seconds)
		}
	}
	// A child killed before it planned anything still attempted a pass.
	res.Attempted = max(started, 1) * max(opsPerPass, 1)
	res.Failed = res.Attempted - ok
	res.Correct = done && res.Failed == 0
	res.Passes, res.Samples = len(allocs), opsPerPass

	// Every number is a median over passes, so a burst of outside load
	// that spoils fewer than half of them leaves the result alone.
	var medTimes, medIntegrals []float64
	for _, s := range specs {
		medTimes = append(medTimes, median(bySpec[s]))
		medIntegrals = append(medIntegrals, median(integrals[s]))
	}
	m := res.Metrics
	m["solve_sgm_s"] = experiments.ShiftedGeoMean(medTimes, sgmShift)
	m["primal_integral_s"] = mean(medIntegrals)
	m["job_p50_s"] = median(p50s)
	m["job_p90_s"] = median(p90s)
	m["jobs_per_s"] = median(rates)
	m["alloc_mb"] = median(allocs)
	m["setup_s"] = median(setups)
	return res
}

// contractLine is the last line of standard output of a single-workload
// run: exactly the keys correct, attempted, failed and metrics.
func (res *Result) contractLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.Metrics
	if traced {
		defs, vals = perLayer, res.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

// print writes the human-readable report: every metric by name with its
// unit.
func (res *Result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  set %s  passes %d  (%s)\n", res.Workload, res.Seed, res.Set, res.Passes, res.Env)
	status := "every answer matches its reference"
	if res.Killed {
		status = "KILLED at the deadline"
	} else if !res.Correct {
		status = "FAILURES"
	}
	fmt.Fprintf(w, "   operations %d attempted, %d failed: %s\n", res.Attempted, res.Failed, status)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   failed: %s\n", f)
	}
	fmt.Fprintf(w, "   %-28s %14.6g %s\n", "fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "frac")
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "job_p50_s":
			note = fmt.Sprintf("   (%d samples a pass, median of %d passes)", res.Samples, res.Passes)
		case "job_p90_s":
			note = fmt.Sprintf("   (%d samples a pass, %d beyond it, median of %d passes)", res.Samples, beyond(res.Samples, 0.9), res.Passes)
		}
		fmt.Fprintf(w, "   %-28s %14.6g %s%s\n", d.Name, res.Metrics[d.Name], d.Unit, note)
	}
	if res.Layers != nil {
		fmt.Fprintf(w, "   -- per layer, from the traced pass and the kernels\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "   %-28s %14.6g %s\n", d.Name, res.Layers[d.Name], d.Unit)
		}
	}
}

// appendResult adds one run to a results file (JSON lines), the input
// of -compare.
func appendResult(path string, res *Result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
