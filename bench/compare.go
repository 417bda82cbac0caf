package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	path := "BENCHMARK.json"
	if benchDir() == "." {
		path = filepath.Join("..", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readResults(path string) ([]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// compare judges set B (the change) against set A (the base), one row
// per workload and end-to-end metric. A row is "worse" when B's median
// is worse than A's by more than the metric's bound, "unresolved" when
// either set's own spread (interquartile distance over median) is wider
// than the bound so the medians cannot tell, and "ok" otherwise.
// fail_frac has no bound: any increase is worse. It returns whether any
// row is worse.
func compare(w io.Writer, bench *benchmarkJSON, a, b []*Result) bool {
	values := func(rs []*Result, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload != workload {
				continue
			}
			if metric == "fail_frac" {
				out = append(out, ratio(float64(r.Failed), float64(r.Attempted)))
			} else {
				out = append(out, r.Metrics[metric])
			}
		}
		return out
	}
	anyWorse := false
	fmt.Fprintf(w, "%-10s %-18s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "verdict")
	for _, wl := range workloads {
		va, vb := values(a, wl, "fail_frac"), values(b, wl, "fail_frac")
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		verdict := "ok"
		if median(vb) > median(va) {
			verdict, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-10s %-18s %12.6g %12.6g %9s %8s %8s  %s (runs %d vs %d)\n", wl, "fail_frac", median(va), median(vb), "-", "-", "-", verdict, len(va), len(vb))
		for _, d := range bench.EndToEnd {
			va, vb := values(a, wl, d.Name), values(b, wl, d.Name)
			ma, mb := median(va), median(vb)
			change := ratio(mb, ma) - 1 // positive: B is larger
			if d.Better == "higher" {
				change = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case change > d.Bound:
				verdict, anyWorse = "worse", true
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-18s %12.6g %12.6g %9.4f %8.4f %8.4f  %s (bound %.2f, %s is better)\n",
				wl, d.Name, ma, mb, ratio(mb, ma), sa, sb, verdict, d.Bound, d.Better)
		}
	}
	return anyWorse
}
