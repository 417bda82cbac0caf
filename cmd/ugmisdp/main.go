// Command ugmisdp is the parallel mixed-integer SDP solver — the
// ug[SCIP-SDP,*] binary. It generates an instance from one of the three
// CBLIB application families (truss topology design, cardinality-
// constrained least squares, minimum k-partitioning), then solves it
// either sequentially (LP or SDP mode) or in parallel with the racing
// LP/SDP hybrid. Everything but the instance flags is the shared run
// harness, internal/cli, so the distributed, tracing and forensics
// flags are ugsteiner's.
//
// Usage:
//
//	ugmisdp -family ttd -workers 8
//	ugmisdp -family mkp -n 7 -k 3 -mode sdp -workers 1
//	ugmisdp -family cls -racing -workers 16
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
)

func main() {
	family := flag.String("family", "ttd", "instance family: ttd, cls, mkp")
	n := flag.Int("n", 0, "size parameter (bars / features / vertices; 0 = default)")
	k := flag.Int("k", 0, "cardinality / partition classes (0 = default)")
	mode := flag.String("mode", "hybrid", "solution mode: lp, sdp, hybrid (racing)")
	run := cli.Register(flag.CommandLine, true)
	flag.Parse()

	inst, _, err := testsets.ByFamily(*family, *n, *k, run.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugmisdp:", err)
		os.Exit(2)
	}
	// Settings[0] — what a sequential solve and every non-racing
	// ParaSolver use — is the SDP configuration unless -mode lp.
	app, err := misdp.NewAppMode(inst, 16, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugmisdp:", err)
		os.Exit(2)
	}
	run.Racing = run.Racing || *mode == "hybrid"
	err = run.Run(cli.Program{
		Name:         "ugmisdp",
		App:          app,
		InstanceArgs: []string{"-family", *family, "-n", fmt.Sprint(*n), "-k", fmt.Sprint(*k), "-mode", *mode},
		Banner: fmt.Sprintf("instance %s: %d variables, %d blocks, %d rows",
			inst.Name, inst.M, len(inst.Blocks), len(inst.Rows)),
		RacingTime: 0.3,
		MaxForm:    true,
	}, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ugmisdp:", err)
		os.Exit(1)
	}
}
