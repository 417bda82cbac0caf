// Package cli is the run harness the solver binaries share — the part of
// a ug[SCIP-*,*] solver that ships once: the flag set, the telemetry
// plane, signal handling, the role a process plays (in-process parallel,
// sequential, distributed coordinator, distributed worker) and the run
// report. A binary supplies what is specific to it as a Program: the
// core.App for the instance its own flags name, the argv that names the
// same instance to a self-spawned worker, and the objective space its
// report is written in. This is the paper's split (one fscip/parascip
// main; the user registers plugins), applied to cmd/ugsteiner and
// cmd/ugmisdp.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/ug"
)

// Flags holds the parsed shared flag set. The flag names are this
// package's alone: Register declares them and workerArgv spells them
// back to self-spawned workers.
type Flags struct {
	Workers    int
	Racing     bool
	Time       float64
	Checkpoint string
	Restart    string
	Sequential bool
	Seed       int64

	Trace     string
	Stats     bool
	Profile   string
	Pprof     string
	Watchdog  time.Duration
	Forensics string

	NetListen  string
	NetConnect string
	Rank       int
	NetProcs   int

	TestPanicRank int
	TestDelayTerm time.Duration
}

// Register declares the shared flags on fs; racing is the binary's
// default ramp-up (ug[SCIP-SDP,*] races by default, its LP/SDP hybrid).
func Register(fs *flag.FlagSet, racing bool) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Workers, "workers", 4, "number of ParaSolvers")
	fs.BoolVar(&f.Racing, "racing", racing, "use racing ramp-up")
	fs.Float64Var(&f.Time, "time", 0, "time limit in seconds (0 = none)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint file to write")
	fs.StringVar(&f.Restart, "restart", "", "checkpoint file to restore")
	fs.BoolVar(&f.Sequential, "sequential", false, "run the sequential solver instead of UG")
	fs.Int64Var(&f.Seed, "seed", 1, "seed: the instance generator's, where a family is generated, and the transport's retry jitter")
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL event trace to this file (render with ugtrace)")
	fs.BoolVar(&f.Stats, "stats", false, "print the full run-statistics and metrics tables")
	fs.StringVar(&f.Profile, "profile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof, Prometheus /metrics and the /events SSE stream on this address during the solve")
	fs.DurationVar(&f.Watchdog, "watchdog", 0, "stall watchdog: after this long without progress events, emit watchdog.stall and write a stall forensics bundle (0 = off)")
	fs.StringVar(&f.Forensics, "forensics", "", "directory for post-mortem forensics bundles (default: <trace>.postmortem when -trace is set, else ug-postmortem)")
	fs.StringVar(&f.NetListen, "net-listen", "", "run as distributed coordinator: rendezvous address to listen on (host:port, :0 = any)")
	fs.StringVar(&f.NetConnect, "net-connect", "", "run as distributed worker: coordinator address to dial")
	fs.IntVar(&f.Rank, "rank", 0, "this worker's rank (with -net-connect; 1-based)")
	fs.IntVar(&f.NetProcs, "net-procs", 0, "single-machine distributed mode: self-spawn N worker processes")
	// Fault-injection hooks for the post-mortem smoke tests — they crash
	// or stall a healthy run on purpose so the forensics pipeline can be
	// exercised end to end.
	fs.IntVar(&f.TestPanicRank, "test-panic-rank", 0, "fault injection: this in-process worker rank panics on its first subproblem (0 = off)")
	fs.DurationVar(&f.TestDelayTerm, "test-delay-term", 0, "fault injection: a net worker delays its first outgoing terminated frame by this long, stalling the coordinator (0 = off)")
	return f
}

// role is the part a process plays in a solve.
type role int

// The four roles, in the order the role switch tests for them.
const (
	roleNetWorker      role = iota // -net-connect: serve subproblems to a remote coordinator
	roleSequential                 // -sequential: the plain base solver, no UG
	roleNetCoordinator             // -net-listen / -net-procs: coordinate worker processes
	roleInProcess                  // default: coordinator and ParaSolvers as goroutines
)

// role is the role switch: the one place a run's mode is chosen.
func (f *Flags) role() role {
	switch {
	case f.NetConnect != "":
		return roleNetWorker
	case f.Sequential:
		return roleSequential
	case f.NetListen != "" || f.NetProcs > 0:
		return roleNetCoordinator
	}
	return roleInProcess
}

// Program is what a solver binary supplies to the harness.
type Program struct {
	// Name is the binary's name; it prefixes signal messages.
	Name string
	// App is the customized solver over the instance the binary's own
	// flags selected.
	App core.App
	// InstanceArgs are the binary's own flags as "-name", "value" pairs:
	// what a self-spawned worker process is re-invoked with, so that it
	// builds the same instance, and what identifies the instance in
	// forensics-bundle manifests.
	InstanceArgs []string
	// Banner is the one-line instance description printed before the
	// solve (not by worker processes, which print nothing).
	Banner string
	// RacingTime is the racing ramp-up's duration in seconds.
	RacingTime float64
	// MaxForm reports objectives negated, for a maximization problem
	// the model states as a minimization.
	MaxForm bool
}

// run is one process's execution state, shared by the role bodies.
type run struct {
	f      *Flags
	p      Program
	tele   telemetry
	cancel <-chan struct{}
	stderr io.Writer // where self-spawned workers' output is routed
}

// Run executes the solve the flags describe, in the role they select,
// and writes the report to stdout. It returns when the process's part
// is over; the caller prints a non-nil error and exits non-zero.
func (f *Flags) Run(p Program, stdout, stderr io.Writer) error {
	if f.Profile != "" {
		pf, err := os.Create(f.Profile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	tele, err := newTelemetry(f, p.InstanceArgs, stderr)
	if err != nil {
		return err
	}
	r := &run{f: f, p: p, tele: tele, stderr: stderr}
	playing := f.role()
	// The sequential solver has no cooperative stop channel; leaving the
	// default signal disposition there keeps ^C an immediate exit.
	if playing != roleSequential {
		r.cancel = cancelOnSignal(p.Name, stderr)
	}
	if playing == roleNetWorker {
		return closeTrace(tele, r.netWorker())
	}

	fmt.Fprintln(stdout, p.Banner)
	cfg := ug.Config{
		Workers:        f.Workers,
		TimeLimit:      f.Time,
		CheckpointPath: f.Checkpoint,
		RestartFrom:    f.Restart,
		Trace:          tele.tracer,
		Metrics:        tele.reg,
		Cancel:         r.cancel,
		Capture:        tele.capture,
		TestPanicRank:  f.TestPanicRank,
	}
	if f.Racing {
		cfg.RampUp = ug.RampUpRacing
		cfg.RacingTime = p.RacingTime
	}
	var (
		res     *ug.Result
		factory *core.Factory
		offset  float64
	)
	switch playing {
	case roleSequential:
		res, offset = r.sequential()
	case roleNetCoordinator:
		res, factory, err = r.netCoordinator(cfg)
	default:
		wd := r.startWatchdog()
		res, factory, err = core.SolveParallel(p.App, cfg)
		wd.Stop()
	}
	if err = closeTrace(tele, err); err != nil {
		return err
	}
	if factory != nil {
		offset = factory.ObjOffset()
	}
	return report(stdout, res, offset, p.MaxForm, f.Stats, tele.reg)
}

// closeTrace closes the process's tracer (flushing the trace file) and
// folds its error into the run's.
func closeTrace(tele telemetry, err error) error {
	if cerr := tele.tracer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// sequential runs the plain customized solver — the App's default
// settings, no UG — and restates its outcome as a one-solver,
// zero-transfer ug.Result so that every role shares one report.
func (r *run) sequential() (*ug.Result, float64) {
	set := scip.DefaultSettings()
	if len(r.p.App.Settings) > 0 {
		set = r.p.App.Settings[0]
	}
	set.TimeLimit = r.f.Time
	wd := r.startWatchdog()
	start := time.Now()
	s, st, offset := core.SolveSequentialTraced(r.p.App, set, r.tele.tracer)
	elapsed := time.Since(start).Seconds()
	wd.Stop()

	res := &ug.Result{
		Optimal:    st == scip.StatusOptimal,
		Infeasible: st == scip.StatusInfeasible,
		Obj:        scip.Infinity,
		DualBound:  s.BestBound(),
	}
	if inc := s.Incumbent(); inc != nil {
		res.Obj = inc.Obj
	}
	res.Stats = ug.RunStats{
		Time: elapsed, RootTime: s.Stats.RootTime, MaxActive: 1,
		TotalNodes: s.Stats.Nodes, OpenAtEnd: s.NumOpen(),
		InitialPrimal: scip.Infinity, InitialDual: -scip.Infinity,
		FinalPrimal: res.Obj, FinalDual: res.DualBound,
		RacingWinner: -1,
		LPIterations: s.Stats.LPIterations, CutsAdded: s.Stats.CutsAdded,
		SolsFound: s.Stats.SolsFound, PropFixings: s.Stats.PropFixings,
		Phases: ug.PhaseTimes(s.Stats.Phases),
	}
	return res, offset
}
