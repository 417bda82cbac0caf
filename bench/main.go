// Command bench is this repository's benchmark: five workloads over the
// solver stack, seven end-to-end metrics plus the failure count, and
// per-layer numbers from a separately traced pass. README.md is the
// glossary; BENCHMARK.json at the repository root fixes the names, units
// and regression bounds.
//
//	bench -workload all -seed 1            every workload, tracing off
//	bench -workload stp_seq -trace 1       per-layer numbers of one workload
//	bench -compare a.jsonl b.jsonl         judge two sets of -out runs
//	bench -calibrate                       rebuild catalog.json on this commit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	start := time.Now()
	var (
		workload  = flag.String("workload", "all", "workload to run: all, or one of stp_seq, misdp_sdp, misdp_lp, stp_ug, serve_mix")
		seed      = flag.Int64("seed", 1, "orders each workload's instances and jobs and seeds the kernels' inputs")
		seconds   = flag.Float64("seconds", 20, "measure each workload for about this long (never fewer than 3 passes)")
		trace     = flag.Int("trace", 0, "1: one further traced pass and the kernels phase; prints the per-layer metrics")
		set       = flag.String("set", "main", "instance set: main, or holdout to re-run a claim on instances not used while writing it")
		out       = flag.String("out", "", "append each workload's result to this file (JSON lines) for -compare")
		doCompare = flag.Bool("compare", false, "compare two result files: bench -compare base.jsonl change.jsonl")
		doCal     = flag.Bool("calibrate", false, "sweep the generators on this commit and rewrite catalog.json")
		child     = flag.Bool("child", false, "internal: the measuring process of one workload")
		probeSpec = flag.String("probe", "", "internal: solve one catalogue entry (JSON)")
		mode      = flag.String("mode", "", "internal: how -probe solves it")
	)
	flag.Parse()
	switch {
	case *probeSpec != "":
		var e Entry
		if err := json.Unmarshal([]byte(*probeSpec), &e); err != nil {
			fatal(err)
		}
		pr, err := probe(&e, *mode)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(pr); err != nil {
			fatal(err)
		}
	case *doCal:
		if err := calibrate(benchDir() + "/catalog.json"); err != nil {
			fatal(err)
		}
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		bench, err := loadBenchmarkJSON()
		if err != nil {
			fatal(err)
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, bench, a, b) {
			os.Exit(1)
		}
	case *child:
		if err := runChild(*workload, *set, *seed, *seconds, *trace == 1, start); err != nil {
			fatal(err)
		}
	default:
		names := []string{*workload}
		if *workload == "all" {
			names = workloads
		}
		failed := false
		for _, name := range names {
			res, err := runWorkload(name, *set, *seed, *seconds, *trace == 1)
			if err != nil {
				fatal(err)
			}
			res.print(os.Stdout)
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fatal(err)
				}
			}
			failed = failed || !res.Correct
			if *workload != "all" {
				fmt.Println(res.contractLine(*trace == 1))
			}
		}
		if failed && *workload == "all" {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
