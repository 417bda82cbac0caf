// Command benchtables regenerates every table and figure of the paper's
// evaluation section at the repository's (scaled-down) instance sizes
// and prints them in the paper's layout. Individual experiments can be
// selected; the default runs everything.
//
// Usage:
//
//	benchtables                  # all tables + figure
//	benchtables -only table4     # a single experiment
//	benchtables -quick           # reduced thread counts / time limits
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment: table1..table4, figure1")
	quick := flag.Bool("quick", false, "reduced limits (for smoke testing)")
	flag.Parse()

	want := func(name string) bool { return *only == "" || *only == name }

	t1Threads := []int{1, 2, 4, 8}
	t1Limit := 100.0
	t4Threads := []int{1, 2, 4, 8, 16}
	t4Limit := 30.0
	t4PerFamily := 6
	t2RunSec, t2Runs := 0.15, 8
	t3RunSec, t3Runs := 6.0, 3
	f1Workers, f1Ladder := 16, 16
	if *quick {
		t1Threads = []int{1, 2, 4}
		t1Limit = 15
		t4Threads = []int{1, 2, 4}
		t4Limit = 8
		t4PerFamily = 3
		t2RunSec, t2Runs = 0.4, 4
		t3RunSec, t3Runs = 2, 2
		f1Workers, f1Ladder = 8, 8
	}

	if want("table1") {
		fmt.Println("== Table 1: shared-memory ug[SCIP-Jack] scaling " +
			"(threads scaled down from the paper's 1..64)")
		rows := experiments.RunTable1(experiments.Table1Names, t1Threads, t1Limit)
		fmt.Println(experiments.FormatTable1(rows, t1Threads))
	}

	if want("table2") {
		fmt.Printf("== Table 2: checkpoint-restart series on %s (the paper's bip52u role)\n", experiments.Table2Name)
		ckpt := filepath.Join(os.TempDir(), "benchtables-t2.ckpt")
		defer os.Remove(ckpt)
		rows := experiments.RunTable2(experiments.Table2Name, 2, t2RunSec, t2Runs, ckpt)
		fmt.Println(experiments.FormatTable2(rows))
	}

	if want("table3") {
		fmt.Printf("== Table 3: seeded racing runs improving the incumbent on %s (the paper's hc10p role)\n", experiments.Table3Name)
		rows := experiments.RunTable3(experiments.Table3Name, 4, t3Runs, t3RunSec)
		fmt.Println(experiments.FormatTable3(rows))
	}

	if want("table4") {
		fmt.Println("== Table 4: ug[SCIP-SDP] vs sequential SCIP-SDP over the CBLIB families")
		res := experiments.RunTable4(experiments.StandardTestsets(t4PerFamily), t4Threads, t4Limit)
		fmt.Println(res.Format())
	}

	if want("figure1") {
		fmt.Println("== Figure 1: racing-winner statistics per setting " +
			"(odd settings SDP-based, even LP-based)")
		res := experiments.RunFigure1(experiments.StandardTestsets(t4PerFamily), f1Workers, f1Ladder, t4Limit)
		fmt.Println(res.Format())
	}
}
