package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestWriteBundleReadBundleRoundTrip(t *testing.T) {
	rec := NewRecorder(nil, 8)
	// Feed more events than the ring holds: the bundle must carry the
	// contiguous tail, and ReadBundle must accept a window that does not
	// start at seq 0.
	for seq := int64(1); seq <= 20; seq++ {
		rec.Emit(mkEvent(seq))
	}
	reg := NewRegistry()
	reg.Counter("ug.dispatch.total").Add(7)
	c := &Capturer{
		Dir: t.TempDir(), Recorder: rec, Registry: reg,
		Extra: map[string]string{"instance": "hc6u", "seed": "1"},
	}
	dir, err := c.WriteBundle("error", "all workers lost")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "error" || b.Manifest.Detail != "all workers lost" {
		t.Fatalf("manifest trigger = %s/%s", b.Manifest.Reason, b.Manifest.Detail)
	}
	if b.Manifest.PID != os.Getpid() {
		t.Fatalf("manifest pid = %d, want %d", b.Manifest.PID, os.Getpid())
	}
	if b.Manifest.Extra["instance"] != "hc6u" {
		t.Fatalf("manifest extra lost: %v", b.Manifest.Extra)
	}
	if len(b.Events) != 8 || b.Events[0].Seq != 13 || b.Events[7].Seq != 20 {
		t.Fatalf("bundle events = %d (first seq %d), want the 8-event tail 13..20",
			len(b.Events), b.Events[0].Seq)
	}
	if b.PanicValue != "" {
		t.Fatalf("non-panic bundle has panic value %q", b.PanicValue)
	}
	metrics, err := os.ReadFile(filepath.Join(dir, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "ug.dispatch.total") {
		t.Fatalf("metrics.txt missing registry rows:\n%s", metrics)
	}
}

func TestReadBundleRejectsGappedEvents(t *testing.T) {
	rec := NewRecorder(nil, 8)
	rec.Emit(mkEvent(1))
	rec.Emit(mkEvent(2))
	c := &Capturer{Dir: t.TempDir(), Recorder: rec}
	dir, err := c.WriteBundle("error", "x")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the window: drop the middle line's successor contiguity.
	path := filepath.Join(dir, "events.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gapped := strings.Replace(string(data), `"seq":2`, `"seq":5`, 1)
	if err := os.WriteFile(path, []byte(gapped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(dir); err == nil || !strings.Contains(err.Error(), "contiguous") {
		t.Fatalf("gapped bundle validated: err = %v", err)
	}
}

// TestReadBundleRejectsTruncatedEvents: a last events.jsonl line without
// its '\n' is what a process killed mid-write leaves, so the bundle is
// rejected as truncated even though the line parses and the count
// still matches the manifest.
func TestReadBundleRejectsTruncatedEvents(t *testing.T) {
	rec := NewRecorder(nil, 8)
	rec.Emit(mkEvent(1))
	rec.Emit(mkEvent(2))
	c := &Capturer{Dir: t.TempDir(), Recorder: rec}
	dir, err := c.WriteBundle("error", "x")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "events.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.TrimSuffix(string(data), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(dir); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated bundle validated: err = %v", err)
	}
}

func TestDisarmedCapturerIsNoop(t *testing.T) {
	for _, c := range []*Capturer{nil, {}} {
		dir, err := c.WriteBundle("error", "x")
		if err != nil || dir != "" {
			t.Fatalf("disarmed WriteBundle = (%q, %v), want no-op", dir, err)
		}
	}
}

// TestCapturePanicRepanicsWithOriginalValue pins both halves of the
// CapturePanic contract: the bundle lands on disk before the unwind
// continues, and the re-panic carries the ORIGINAL value so crash
// semantics are untouched.
func TestCapturePanicRepanicsWithOriginalValue(t *testing.T) {
	rec := NewRecorder(nil, 4)
	rec.Emit(mkEvent(1))
	c := &Capturer{Dir: t.TempDir(), Recorder: rec}
	type boom struct{ why string }
	original := boom{why: "injected"}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		defer c.CapturePanic("test.goroutine")
		panic(original)
	}()
	if recovered != original {
		t.Fatalf("re-panic value = %#v, want the original %#v", recovered, original)
	}
	entries, err := os.ReadDir(c.Dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("bundle count = %d (err %v), want 1", len(entries), err)
	}
	b, err := ReadBundle(filepath.Join(c.Dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "panic" || b.Manifest.Detail != "test.goroutine" {
		t.Fatalf("panic bundle trigger = %s/%s", b.Manifest.Reason, b.Manifest.Detail)
	}
	if !strings.Contains(b.PanicValue, "injected") {
		t.Fatalf("panic value %q does not carry the payload", b.PanicValue)
	}
	if !strings.HasPrefix(b.PanicGoroutine, "goroutine ") {
		t.Fatalf("bundle does not name the panicking goroutine: %q", b.PanicGoroutine)
	}
}

// TestCapturePanicNilCapturerStillRepanics: the disarmed hook must not
// swallow panics.
func TestCapturePanicNilCapturerStillRepanics(t *testing.T) {
	var c *Capturer
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		defer c.CapturePanic("nowhere")
		panic("still visible")
	}()
	if recovered != "still visible" {
		t.Fatalf("nil capturer altered the panic: %v", recovered)
	}
}

// TestWriteBundleConcurrent races bundle capture against live emission
// and subscriber churn on the full tracer→bus→recorder chain — the
// exact interleaving a watchdog firing mid-solve produces. Run under
// -race; every captured bundle must still validate.
func TestWriteBundleConcurrent(t *testing.T) {
	rec := NewRecorder(nil, 32)
	reg := NewRegistry()
	bus := NewBus(rec, reg)
	c := &Capturer{Dir: t.TempDir(), Recorder: rec, Registry: reg}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // emitter
		defer wg.Done()
		for seq := int64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
				bus.Emit(mkEvent(seq))
			}
		}
	}()
	wg.Add(1)
	go func() { // subscriber churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ch, cancel := bus.Subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}
	}()

	var dirs []string
	for i := 0; i < 10; i++ {
		dir, err := c.WriteBundle("stall", fmt.Sprintf("concurrent capture %d", i))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	close(stop)
	wg.Wait()
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	// A final capture after Close: the recorder ring must survive the
	// telemetry teardown.
	dir, err := c.WriteBundle("error", "post-close capture")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, dir)

	for _, dir := range dirs {
		if _, err := ReadBundle(dir); err != nil {
			t.Errorf("bundle %s failed validation: %v", dir, err)
		}
	}
}
