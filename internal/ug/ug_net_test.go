package ug

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ug/comm"
	netcomm "repro/internal/ug/comm/net"
	"repro/internal/ug/comm/net/nettest"
)

// runDistributed solves ff over a loopback netcomm roster (nettest.Run):
// the coordinator and each worker get their own endpoint, exactly as the
// multi-process CLI path wires them. Worker processes presolve their own
// instance copy; the fake factory's presolve is pure, so sharing ff
// mirrors that. wOpts customizes individual workers (fault plans).
func runDistributed(t *testing.T, ff SolverFactory, workers int, cfg Config,
	wOpts map[int]netcomm.Options) (res *Result, err error) {
	t.Helper()
	nettest.Run(t, workers, cfg.Trace, wOpts,
		func(rank int, wc comm.Comm, trace *obs.Tracer) { RunWorker(rank, wc, ff, trace) },
		func(c comm.Comm) {
			cfg.Workers, cfg.Comm, cfg.RemoteWorkers = workers, c, true
			res, err = Run(ff, cfg)
		})
	return res, err
}

// TestDistributedMatchesChannelComm is the acceptance check for the
// distributed transport: the same instance solved over loopback TCP
// endpoints must reach the same final primal and dual bounds as the
// in-process ChannelComm run.
func TestDistributedMatchesChannelComm(t *testing.T) {
	const lo, hi, chunk = 0, 30000, 400
	inproc, err := Run(&fakeFactory{lo: lo, hi: hi, chunk: chunk},
		Config{Workers: 2, StatusInterval: 1e-4, ShipInterval: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := runDistributed(t, &fakeFactory{lo: lo, hi: hi, chunk: chunk}, 2,
		Config{StatusInterval: 1e-4, ShipInterval: 1e-4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Optimal {
		t.Fatalf("distributed run not optimal: %+v", dist)
	}
	if dist.Obj != inproc.Obj {
		t.Fatalf("primal bound: distributed %v, in-process %v", dist.Obj, inproc.Obj)
	}
	if dist.DualBound != inproc.DualBound {
		t.Fatalf("dual bound: distributed %v, in-process %v", dist.DualBound, inproc.DualBound)
	}
	if want := trueMin(lo, hi); dist.Obj != want {
		t.Fatalf("distributed obj %v, true min %v", dist.Obj, want)
	}
	if dist.Stats.TotalNodes == 0 || dist.Stats.Dispatched == 0 {
		t.Fatalf("stats did not flow over the wire: %+v", dist.Stats)
	}
}

// TestDistributedWorkerDeathRequeues is the FaultPlan acceptance check:
// the transport of the worker holding the root subproblem (rank 2 —
// dispatchAll pops the idle stack from the top) hard-disconnects on its
// 3rd status report, mid-solve with the subproblem in flight. The run
// must still finish: the coordinator requeues the lost subproblem and
// the surviving worker completes the search. Completion within the
// suite timeout is the no-deadlock assertion.
func TestDistributedWorkerDeathRequeues(t *testing.T) {
	const lo, hi, chunk = 0, 300000, 300
	wOpts := map[int]netcomm.Options{
		2: {Fault: netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagStatus, Nth: 3, Action: netcomm.FaultDisconnect})},
	}
	sink := &obs.MemSink{}
	// A bound below every objective: the lost rank's reported bound goes
	// back with the root and must not close the gap, so the root is
	// dispatched again.
	res, err := runDistributed(t, &fakeFactory{lo: lo, hi: hi, chunk: chunk, bound: -1}, 2,
		Config{StatusInterval: 1e-4, ShipInterval: 1e-4, Trace: obs.NewTracer(sink)}, wOpts)
	if err != nil {
		t.Fatal(err)
	}
	if down := sink.Filter(obs.KindCommPeerDown); len(down) == 0 {
		t.Fatal("fault plan never fired: no comm.peerdown event — test exercised nothing")
	} else if down[0].Rank != 2 {
		t.Fatalf("peerdown for rank %d, want 2 (the rank holding the root)", down[0].Rank)
	}
	if disp := sink.Filter(obs.KindDispatch); len(disp) < 2 {
		t.Fatalf("%d dispatches, want ≥ 2 (original + requeued root)", len(disp))
	}
	if !res.Optimal {
		t.Fatalf("run with a dead worker not optimal: %+v", res)
	}
	if want := trueMin(lo, hi); res.Obj != want {
		t.Fatalf("obj %v, true min %v (lost subproblem not requeued?)", res.Obj, want)
	}
}

// TestDistributedMergedTraceCausallyConsistent is the acceptance check
// for the causal-tracing layer: a 3-process (coordinator + 2 workers)
// loopback solve with a fault-injected disconnect records one trace per
// endpoint, and the merged timeline must pass the cross-rank validator —
// Lamport order puts every worker event inside its dispatch→outcome
// window and every collected node after its ship announcement, even
// with a worker dying mid-run.
func TestDistributedMergedTraceCausallyConsistent(t *testing.T) {
	const lo, hi, chunk = 0, 300000, 300
	csink := &obs.MemSink{}
	w1, w2 := &obs.MemSink{}, &obs.MemSink{}
	wOpts := map[int]netcomm.Options{
		1: {Trace: obs.NewTracer(w1)},
		2: {Trace: obs.NewTracer(w2), Fault: netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagStatus, Nth: 3, Action: netcomm.FaultDisconnect})},
	}
	res, err := runDistributed(t, &fakeFactory{lo: lo, hi: hi, chunk: chunk}, 2,
		Config{StatusInterval: 1e-4, ShipInterval: 1e-4, Trace: obs.NewTracer(csink)}, wOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("run not optimal: %+v", res)
	}
	if len(csink.Filter(obs.KindCommPeerDown)) == 0 {
		t.Fatal("fault plan never fired: no comm.peerdown event — test exercised nothing")
	}
	perRank := [][]obs.Event{csink.Events(), w1.Events(), w2.Events()}
	for i, evs := range perRank {
		if err := obs.ValidateTrace(evs); err != nil {
			t.Fatalf("per-endpoint trace %d invalid: %v", i, err)
		}
	}
	merged, err := obs.MergeTraces(perRank...)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMergedTrace(merged); err != nil {
		t.Fatalf("merged trace fails cross-rank validation: %v", err)
	}
	byOrigin := map[int]int{}
	for _, ev := range merged {
		byOrigin[ev.Orig]++
	}
	for origin := 0; origin <= 2; origin++ {
		if byOrigin[origin] == 0 {
			t.Fatalf("no events from origin %d in merged trace (have %v)", origin, byOrigin)
		}
	}
}

// TestDistributedWatchdogFiresOnDelayedPeer is the acceptance check for
// the stall watchdog on a live distributed solve: the single worker's
// transport delays its 2nd status frame by 900ms, which (the outgoing
// data loop being serialized) stalls every data frame behind it while
// heartbeats keep the link alive — a straggler, not a death. The
// watchdog must fire during the quiet window, land a schema-valid
// watchdog.stall event in the coordinator trace, and write the stall
// bundle with its goroutine dump; the run must still finish optimal, and
// the trace must still pass the structural validator with stall events
// interleaved.
func TestDistributedWatchdogFiresOnDelayedPeer(t *testing.T) {
	const lo, hi, chunk = 0, 300000, 300
	sink := &obs.MemSink{}
	rec := obs.NewRecorder(sink, 0)
	bus := obs.NewBus(rec, obs.NewRegistry())
	tracer := obs.NewTracer(bus)
	capture := &obs.Capturer{Dir: t.TempDir(), Recorder: rec}

	stalls := make(chan obs.Event, 4)
	ff := &fakeFactory{lo: lo, hi: hi, chunk: chunk}
	wOpts := map[int]netcomm.Options{
		1: {Fault: netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagStatus, Nth: 2, Action: netcomm.FaultDelay, Delay: 900 * time.Millisecond})},
	}
	var (
		res *Result
		err error
	)
	nettest.Run(t, 1, tracer, wOpts,
		func(rank int, wc comm.Comm, trace *obs.Tracer) { RunWorker(rank, wc, ff, trace) },
		func(c comm.Comm) {
			// Arm the watchdog where the CLI's net coordinator does: after
			// the rendezvous has opened the trace with comm.connect, before
			// the solve, so it observes the dispatch that opens its window.
			wd := obs.StartWatchdog(obs.WatchdogConfig{
				Bus: bus, Tracer: tracer, Quiet: 200 * time.Millisecond, Capture: capture,
				OnStall: func(ev obs.Event) {
					select {
					case stalls <- ev:
					default:
					}
				},
			})
			res, err = Run(ff, Config{Workers: 1, Comm: c, RemoteWorkers: true,
				StatusInterval: 1e-4, ShipInterval: 1e-4, Trace: tracer})
			wd.Stop()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("run with a delayed peer not optimal: %+v", res)
	}
	if want := trueMin(lo, hi); res.Obj != want {
		t.Fatalf("obj %v, true min %v", res.Obj, want)
	}

	select {
	case ev := <-stalls:
		if ev.Kind != obs.KindWatchdogStall {
			t.Fatalf("stall callback got kind %q", ev.Kind)
		}
	default:
		t.Fatal("watchdog never fired during a 900ms data stall with a 200ms quiet window")
	}
	stallEvs := sink.Filter(obs.KindWatchdogStall)
	if len(stallEvs) == 0 {
		t.Fatal("watchdog.stall missing from the coordinator trace")
	}
	for _, ev := range stallEvs {
		if !strings.Contains(ev.Str, "@") {
			t.Fatalf("stall payload missing per-rank last-activity ticks: %+v", ev)
		}
	}
	// Stall events interleave with coordination events; the trace must
	// still satisfy every structural invariant.
	if err := obs.ValidateTrace(sink.Events()); err != nil {
		t.Fatalf("trace with stall events fails validation: %v", err)
	}
	// The stall bundle's goroutine dump holds real stacks.
	dumps, _ := filepath.Glob(filepath.Join(capture.Dir, "stall-*", "goroutines.txt"))
	if len(dumps) == 0 {
		t.Fatal("no stall bundle with a goroutine dump was written")
	}
	data, rerr := os.ReadFile(dumps[0])
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(data), "goroutine") {
		t.Fatalf("dump does not look like a goroutine profile (%d bytes)", len(data))
	}
}

// TestDistributedAllWorkersDeadErrors pins the other half of the
// failure contract: when every worker is lost the coordinator must
// terminate with a clear error, never hang.
func TestDistributedAllWorkersDeadErrors(t *testing.T) {
	wOpts := map[int]netcomm.Options{
		1: {Fault: netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagStatus, Nth: 2, Action: netcomm.FaultDisconnect})},
	}
	// A bound below every objective, so the lost root, requeued with it,
	// is still work left.
	_, err := runDistributed(t, &fakeFactory{lo: 0, hi: 200000, chunk: 50, bound: -1}, 1,
		Config{StatusInterval: 1e-4, ShipInterval: 1e-4}, wOpts)
	if err == nil {
		t.Fatal("coordinator reported success with all workers dead")
	}
	if !strings.Contains(err.Error(), "workers lost") {
		t.Fatalf("unclear failure: %v", err)
	}
}
