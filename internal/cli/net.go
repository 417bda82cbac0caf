package cli

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ug"
	"repro/internal/ug/comm"
	netcomm "repro/internal/ug/comm/net"
)

// workerCancelGrace is how long an interrupted worker waits for the
// coordinator-driven stop (the coordinator usually received the same
// signal and interrupts every solver cleanly) before unilaterally
// closing its comm. Either way the worker exits gracefully with a
// flushed trace.
const workerCancelGrace = 2 * time.Second

// netWorker is a worker process's whole life: presolve the instance
// locally (each process owns its copy — subproblem payloads, not the
// model, cross the wire), dial the coordinator, serve subproblems until
// termination, and hang up. It returns when the coordinator terminates
// the run or the transport reports the coordinator gone. A worker has no
// output of its own; with -trace it writes its per-rank trace, with
// -pprof it exposes its own debug server, with -watchdog it arms its
// own stall watchdog.
func (r *run) netWorker() (err error) {
	capture := r.tele.capture
	// Both failure edges of a worker process leave a forensics bundle:
	// a panic anywhere below (captured, bundled, rethrown) and an error
	// return (bundled on the way out).
	defer capture.CapturePanic("net.worker")
	defer func() {
		if err != nil {
			_, _ = capture.WriteBundle("error", err.Error())
		}
	}()
	if r.f.Rank < 1 {
		return fmt.Errorf("worker rank must be >= 1, got %d", r.f.Rank)
	}
	factory := core.NewFactory(r.p.App)
	if _, _, err := factory.GlobalPresolve(); err != nil {
		return fmt.Errorf("worker presolve: %w", err)
	}
	var fault *netcomm.FaultPlan
	if r.f.TestDelayTerm > 0 {
		fault = netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagTerminated, Nth: 1, Action: netcomm.FaultDelay, Delay: r.f.TestDelayTerm,
		})
	}
	c, err := netcomm.Dial(r.f.NetConnect, r.f.Rank, netcomm.Options{
		Seed: r.f.Seed, Trace: r.tele.tracer, Metrics: r.tele.reg,
		Fault: fault, Capture: capture,
	})
	if err != nil {
		return err
	}
	// The watchdog arms after the rendezvous: dial retries can legally
	// take longer than the quiet window, and the trace opener invariant
	// (comm.connect first) must hold.
	wd := r.startWatchdog()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.cancel:
		case <-done:
			return
		}
		t := time.NewTimer(workerCancelGrace)
		defer t.Stop()
		select {
		case <-t.C:
			// The coordinator did not stop us within the grace window;
			// close the comm ourselves. Recv unblocks with a synthesized
			// termination and the worker unwinds as if the coordinator
			// were gone.
			_ = c.Close()
		case <-done:
		}
	}()
	ug.RunWorker(r.f.Rank, c, factory, r.tele.tracer)
	wd.Stop()
	return c.Close()
}

// workerArgv is the command line a self-spawned worker is started with:
// the binary's instance flags, then the shared flags a worker inherits
// (each gets its own per-rank trace, its own watchdog over its own bus,
// and the coordinator's forensics directory — bundle names embed the
// pid, so processes never collide), then its place in the roster.
func (r *run) workerArgv(addr string, rank int) []string {
	args := append([]string{}, r.p.InstanceArgs...)
	args = append(args, "-seed", fmt.Sprint(r.f.Seed))
	if r.f.TestDelayTerm > 0 {
		args = append(args, "-test-delay-term", r.f.TestDelayTerm.String())
	}
	if r.f.Trace != "" {
		// One JSONL trace per process: the inputs `ugtrace -merge` joins
		// into a global causal timeline.
		args = append(args, "-trace", fmt.Sprintf("%s.rank%d", r.f.Trace, rank))
	}
	if r.f.Watchdog > 0 {
		args = append(args, "-watchdog", r.f.Watchdog.String())
	}
	args = append(args, "-forensics", r.tele.capture.Dir)
	return append(args, "-net-connect", addr, "-rank", strconv.Itoa(rank))
}

// netCoordinator is core.SolveParallel's distributed variant: it binds
// the rendezvous port, optionally self-spawns -net-procs worker
// processes (re-invoking this executable with workerArgv), waits for
// the full roster, and runs the UG coordination loop over the TCP
// transport. The transport inherits cfg.Trace and cfg.Metrics, so
// comm.connect/heartbeat events and transfer-byte counters land in the
// same trace/stats pipeline as the in-process runs.
func (r *run) netCoordinator(cfg ug.Config) (*ug.Result, *core.Factory, error) {
	addr := r.f.NetListen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := netcomm.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	if r.f.NetProcs > 0 {
		cfg.Workers = r.f.NetProcs
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}

	var procs []*exec.Cmd
	killAll := func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}
	if r.f.NetProcs > 0 {
		exe, err := os.Executable()
		if err != nil {
			_ = ln.Close()
			return nil, nil, fmt.Errorf("self-spawn: %w", err)
		}
		for rank := 1; rank <= r.f.NetProcs; rank++ {
			cmd := exec.Command(exe, r.workerArgv(ln.Addr(), rank)...)
			// Workers write nothing in normal operation; route what they
			// do write (errors) to stderr so the coordinator's stdout
			// stays machine-readable.
			cmd.Stdout = r.stderr
			cmd.Stderr = r.stderr
			if err := cmd.Start(); err != nil {
				killAll()
				_ = ln.Close()
				return nil, nil, fmt.Errorf("spawn worker %d: %w", rank, err)
			}
			procs = append(procs, cmd)
		}
	}

	c, err := ln.Rendezvous(cfg.Workers+1, netcomm.Options{
		Seed:    r.f.Seed,
		Trace:   cfg.Trace,
		Metrics: cfg.Metrics,
		Capture: cfg.Capture,
	})
	if err != nil {
		killAll()
		return nil, nil, fmt.Errorf("rendezvous: %w", err)
	}
	cfg.Comm = c
	cfg.RemoteWorkers = true

	factory := core.NewFactory(r.p.App)
	wd := r.startWatchdog()
	res, err := ug.Run(factory, cfg)
	wd.Stop()
	// Close drains the termination frames to the workers and says
	// goodbye; the workers exit on their own after that.
	_ = c.Close()
	for i, p := range procs {
		if werr := p.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("worker process %d: %w", i+1, werr)
		}
	}
	return res, factory, err
}
