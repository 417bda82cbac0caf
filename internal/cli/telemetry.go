package cli

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/obs"
)

// telemetry is one process's observability plumbing: the tracer every
// event enters through, the bus live subscribers attach to (nil unless
// something live is on), the metrics registry, and the forensics
// capturer every failure edge bundles through.
type telemetry struct {
	tracer  *obs.Tracer
	bus     *obs.Bus
	reg     *obs.Registry
	capture *obs.Capturer
}

// newTelemetry wires the telemetry plane from the flags:
//
//	Tracer → [Bus →] Recorder → [File]
//
// The file sink (when -trace is given) stays the authoritative trace:
// the flight recorder tees in front of it, forwarding downstream first,
// so the file bytes are identical either way; the bus tees in front of
// the recorder only when something live wants events (-pprof's /events
// stream or the -watchdog). That is the invariant the harness owns: a
// single-process trace is byte-identical with the live plane on or off.
// The recorder and the metrics registry are always on — that is what
// makes a post-mortem bundle useful on a run that had no -trace — and
// the capturer is what every failure edge (panic, watchdog stall, run
// error) writes its bundle through. With -pprof it also starts the
// debug server (which lives until process exit) serving pprof,
// /metrics and /events.
func newTelemetry(f *Flags, instanceArgs []string, stderr io.Writer) (telemetry, error) {
	t := telemetry{reg: obs.NewRegistry()}
	var sink obs.Sink
	if f.Trace != "" {
		fs, err := obs.NewFileSink(f.Trace)
		if err != nil {
			return t, err
		}
		sink = fs
	}
	rec := obs.NewRecorder(sink, 0)
	sink = rec
	if f.Pprof != "" || f.Watchdog > 0 {
		t.bus = obs.NewBus(sink, t.reg)
		sink = t.bus
	}
	t.tracer = obs.NewTracer(sink)

	dir := f.Forensics
	if dir == "" {
		dir = "ug-postmortem"
		if f.Trace != "" {
			dir = f.Trace + ".postmortem"
		}
	}
	extra := map[string]string{"seed": fmt.Sprint(f.Seed), "workers": fmt.Sprint(f.Workers)}
	for i := 0; i+1 < len(instanceArgs); i += 2 {
		extra[strings.TrimPrefix(instanceArgs[i], "-")] = instanceArgs[i+1]
	}
	t.capture = &obs.Capturer{Dir: dir, Recorder: rec, Registry: t.reg, Extra: extra}

	if f.Pprof != "" {
		ds, err := obs.StartDebugServer(f.Pprof, t.reg, t.bus)
		if err != nil {
			return t, err
		}
		fmt.Fprintf(stderr, "debug server on http://%s (/debug/pprof/, /metrics, /events)\n", ds.Addr())
	}
	return t, nil
}

// startWatchdog arms the stall watchdog over this process's bus and
// tracer for the duration of a solve. Without -watchdog it returns nil,
// whose Stop is a no-op.
func (r *run) startWatchdog() *obs.Watchdog {
	return obs.StartWatchdog(obs.WatchdogConfig{
		Bus: r.tele.bus, Tracer: r.tele.tracer, Quiet: r.f.Watchdog, Capture: r.tele.capture,
	})
}

// cancelOnSignal returns a channel closed on the first SIGINT/SIGTERM.
// The solve stops cooperatively — the coordinator runs its ordinary stop
// protocol, a net worker closes its comm after a short grace — so the
// trace file is complete (run.start … run.end) and validates instead of
// being truncated mid-write. A second signal force-exits.
func cancelOnSignal(name string, stderr io.Writer) <-chan struct{} {
	cancel := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		got := <-sig
		fmt.Fprintf(stderr, "%s: %v — stopping cooperatively (signal again to force quit)\n", name, got)
		close(cancel)
		<-sig
		os.Exit(1)
	}()
	return cancel
}
