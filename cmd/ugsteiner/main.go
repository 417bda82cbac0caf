// Command ugsteiner is the parallel Steiner tree solver — the
// ug[SCIP-Jack,*] binary. It reads a SteinLib .stp file (or builds an
// instance registered in puc.Named), runs the UG-parallelized SCIP-Jack
// pipeline, and reports the solution plus the coordination statistics
// the paper's tables are built from. Everything but the instance flags
// is the shared run harness, internal/cli.
//
// Usage:
//
//	ugsteiner -file instance.stp -workers 8
//	ugsteiner -instance hc6u -workers 16 -racing
//	ugsteiner -instance hc7p -workers 8 -time 30 -checkpoint run.ckpt
//	ugsteiner -instance hc7p -workers 8 -restart run.ckpt
//
// Distributed (multi-process) mode over the comm/net TCP transport:
//
//	ugsteiner -instance hc6u -net-procs 2              # self-spawn 2 workers
//	ugsteiner -instance hc6u -net-listen :7071 -workers 2   # coordinator
//	ugsteiner -instance hc6u -net-connect host:7071 -rank 1 # worker
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

func main() {
	file := flag.String("file", "", "SteinLib .stp file to solve")
	instance := flag.String("instance", "", "named instance: "+strings.Join(puc.Names(), ", "))
	run := cli.Register(flag.CommandLine, false)
	flag.Parse()

	var (
		spg  *steiner.SPG
		err  error
		args = []string{"-instance", *instance} // the flag that names the instance
	)
	switch {
	case *file != "":
		args = []string{"-file", *file}
		spg, err = readSTP(*file)
	case *instance != "":
		if spg = puc.Named(*instance); spg == nil {
			err = fmt.Errorf("unknown instance %q", *instance)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	err = run.Run(cli.Program{
		Name:         "ugsteiner",
		App:          steiner.NewApp(spg),
		InstanceArgs: args,
		Banner: fmt.Sprintf("instance %s: %d vertices, %d edges, %d terminals",
			spg.Name, spg.G.AliveVertices(), spg.G.AliveEdges(), spg.NumTerminals()),
		RacingTime: 0.5,
	}, os.Stdout, os.Stderr)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ugsteiner:", err)
	os.Exit(1)
}

func readSTP(path string) (*steiner.SPG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return steiner.ReadSTP(f)
}
