package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWatchdogNilSafety(t *testing.T) {
	if wd := StartWatchdog(WatchdogConfig{}); wd != nil {
		t.Fatal("nil bus must disable the watchdog")
	}
	if wd := StartWatchdog(WatchdogConfig{Bus: NewBus(nil, nil)}); wd != nil {
		t.Fatal("zero quiet window must disable the watchdog")
	}
	var wd *Watchdog
	wd.Stop() // must not panic
	if wd.Fires() != 0 {
		t.Fatal("nil watchdog reports fires")
	}
}

// TestWatchdogFiresOnStallAndWritesBundle drives the full loop: progress
// holds the watchdog off, silence makes it fire, the stall event lands
// in the trace with per-rank last-activity in the payload, and the
// stall bundle with its goroutine dump appears on disk.
func TestWatchdogFiresOnStallAndWritesBundle(t *testing.T) {
	sink := &MemSink{}
	rec := NewRecorder(sink, 0)
	bus := NewBus(rec, nil)
	tracer := NewTracer(bus)
	capture := &Capturer{Dir: t.TempDir(), Recorder: rec}

	stalled := make(chan Event, 8)
	wd := StartWatchdog(WatchdogConfig{
		Bus: bus, Tracer: tracer, Quiet: 200 * time.Millisecond, Capture: capture,
		OnStall: func(ev Event) { stalled <- ev },
	})
	defer wd.Stop()

	// Before any progress event the window is not open: silence alone
	// must not fire (there is no rank to blame yet).
	time.Sleep(300 * time.Millisecond)
	if n := wd.Fires(); n != 0 {
		t.Fatalf("watchdog fired %d time(s) before any progress was observed", n)
	}

	// Keep emitting progress for more than a quiet window: must not
	// fire. The gaps are a tenth of the window, so a loaded -race run
	// that oversleeps several-fold still stays inside it.
	for i := 0; i < 12; i++ {
		tracer.SetTick(int64(10 + i))
		tracer.Emit(Event{Kind: KindStatus, Rank: 1 + i%2})
		time.Sleep(20 * time.Millisecond)
	}
	if n := wd.Fires(); n != 0 {
		t.Fatalf("watchdog fired %d time(s) during steady progress", n)
	}

	// Go quiet: it must fire within ~1.25 windows (poll granularity).
	var ev Event
	select {
	case ev = <-stalled:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired after silence")
	}
	if ev.Kind != KindWatchdogStall {
		t.Fatalf("stall event kind %q", ev.Kind)
	}
	if ev.Open != 2 {
		t.Fatalf("stall event tracks %d ranks, want 2 (payload %+v)", ev.Open, ev)
	}
	if !strings.Contains(ev.Str, "rank1@") || !strings.Contains(ev.Str, "rank2@") {
		t.Fatalf("stall summary missing per-rank ticks: %q", ev.Str)
	}

	// The event must be in the trace stream, fully stamped.
	found := false
	for _, e := range sink.Events() {
		if e.Kind == KindWatchdogStall {
			found = true
			if e.Seq == 0 {
				t.Fatal("stall event missing tracer seq stamp")
			}
		}
	}
	if !found {
		t.Fatal("watchdog.stall not in the trace sink")
	}

	// The stall bundle holds the goroutine dump (real stacks, not an
	// empty file). OnStall runs after the bundle is written.
	dumps, _ := filepath.Glob(filepath.Join(capture.Dir, "stall-*", "goroutines.txt"))
	if len(dumps) != 1 {
		t.Fatalf("stall bundles with a goroutine dump: %v, want exactly one", dumps)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "goroutine") {
		t.Fatalf("dump does not look like a goroutine profile (%d bytes)", len(data))
	}
}

// TestWatchdogTracerlessPublishes: with no tracer the stall event still
// reaches live bus subscribers (the SSE path) but never the sink.
func TestWatchdogTracerlessPublishes(t *testing.T) {
	sink := &MemSink{}
	bus := NewBus(sink, nil)
	ch, cancel := bus.Subscribe(KindWatchdogStall)
	defer cancel()
	wd := StartWatchdog(WatchdogConfig{Bus: bus, Quiet: 60 * time.Millisecond})
	defer wd.Stop()
	bus.Publish(Event{Kind: KindStatus, Rank: 1, Tick: 5}) // opens the quiet window

	select {
	case ev := <-ch:
		if ev.Kind != KindWatchdogStall || ev.Str != "rank1@5" {
			t.Fatalf("unexpected stall event %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tracer-less watchdog never published a stall")
	}
	for _, e := range sink.Events() {
		if e.Kind == KindWatchdogStall {
			t.Fatal("tracer-less stall leaked into the sink")
		}
	}
}

// TestWatchdogRefireThrottled: a persistent stall fires roughly once per
// quiet window, not once per poll tick.
func TestWatchdogRefireThrottled(t *testing.T) {
	bus := NewBus(nil, nil)
	wd := StartWatchdog(WatchdogConfig{Bus: bus, Quiet: 100 * time.Millisecond})
	bus.Publish(Event{Kind: KindStatus, Rank: 1}) // opens the quiet window
	time.Sleep(450 * time.Millisecond)
	wd.Stop()
	// Windows elapsed: ~4.5 → at most ~4 firings; poll ticks: ~18.
	if n := wd.Fires(); n < 1 || n > 5 {
		t.Fatalf("fires = %d over ~4.5 quiet windows, want 1..5", n)
	}
}

// TestWatchdogStallIsKnownKind keeps the schema and the validator in
// agreement for the new kind.
func TestWatchdogStallIsKnownKind(t *testing.T) {
	if !KnownKind(KindWatchdogStall) {
		t.Fatal("watchdog.stall not in the trace schema")
	}
	line := Event{Seq: 3, Tick: 9, Kind: KindWatchdogStall, Rank: 2, Open: 2, Str: "rank1@4 rank2@9"}.AppendJSON(nil)
	ev, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Str != "rank1@4 rank2@9" || ev.Open != 2 {
		t.Fatalf("round-trip lost payload: %+v", ev)
	}
}
