package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Capturer writes post-mortem forensics bundles: one self-contained
// directory per trigger holding the flight-recorder tail, a metrics
// snapshot, goroutine and heap profiles, and a build/config manifest.
// It is the single capture point every failure edge funnels into —
// panics (CapturePanic), watchdog stalls, coordinator error returns and
// ugserve job failures — so "what do we have on disk after a death?"
// always has the same answer: a bundle ugtrace -postmortem can read.
//
// The nil *Capturer, and any capturer with an empty Dir, is disarmed:
// WriteBundle does nothing and CapturePanic degrades to a plain
// recover-and-rethrow. Instrumented code therefore installs the hooks
// unconditionally.
type Capturer struct {
	// Dir is the parent directory bundles are created under. Empty
	// disarms the capturer.
	Dir string
	// Recorder supplies the recent-event tail (may be nil: the bundle
	// then has an empty events.jsonl).
	Recorder *Recorder
	// Registry supplies the metrics table (may be nil).
	Registry *Registry
	// Extra is merged into the manifest verbatim — the CLIs put the
	// instance name, seed and worker layout here.
	Extra map[string]string

	mu  sync.Mutex
	seq int
}

// Armed reports whether this capturer will actually write bundles.
func (c *Capturer) Armed() bool { return c != nil && c.Dir != "" }

// Manifest is the bundle's machine-readable identity card.
type Manifest struct {
	Reason     string            `json:"reason"` // "panic", "stall", "error", "job-failed", ...
	Detail     string            `json:"detail"` // trigger-specific one-liner
	Time       string            `json:"time"`   // RFC3339Nano, UTC
	PID        int               `json:"pid"`
	Executable string            `json:"executable"`
	Args       []string          `json:"args"`
	GoVersion  string            `json:"go_version"`
	Hostname   string            `json:"hostname"`
	Events     int               `json:"events"` // lines in events.jsonl
	Extra      map[string]string `json:"extra,omitempty"`
}

// Bundle file names. The layout is the contract between the capturer
// and ugtrace -postmortem; DESIGN.md §7.6 documents it.
const (
	bundleManifest   = "manifest.json"
	bundleEvents     = "events.jsonl"
	bundleMetrics    = "metrics.txt"
	bundleGoroutines = "goroutines.txt"
	bundleHeap       = "heap.pprof"
	bundlePanic      = "panic.txt"
)

// WriteBundle captures a forensics bundle for the given trigger reason
// ("stall", "error", "job-failed", ...) and human-readable detail. It
// returns the bundle directory. On a disarmed capturer it returns ""
// with no error, so call sites need no enablement checks.
func (c *Capturer) WriteBundle(reason, detail string) (string, error) {
	return c.write(reason, detail, nil)
}

// CapturePanic is the recover-and-rethrow hook for solve-path
// goroutines: defer it directly (`defer cap.CapturePanic("worker")`) at
// the top of coordinator, worker, scheduler and netcomm pump
// goroutines. On a panic it writes a bundle whose panic.txt names the
// panicking goroutine and carries the full stack, then re-panics with
// the ORIGINAL value so crash semantics — non-zero exit, stack on
// stderr, tests seeing the panic — are unchanged. Safe (and still
// re-panicking) on the nil capturer.
func (c *Capturer) CapturePanic(where string) {
	v := recover()
	if v == nil {
		return
	}
	if c.Armed() {
		info := fmt.Sprintf("panic: %v\n\n%s", v, debug.Stack())
		_, _ = c.write("panic", where, []byte(info)) // best-effort: the re-panic below must happen regardless
	}
	panic(v)
}

// write is the single bundle assembly path. panicInfo, when non-nil, is
// the panic.txt payload (first stack line names the goroutine).
func (c *Capturer) write(reason, detail string, panicInfo []byte) (string, error) {
	if !c.Armed() {
		return "", nil
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: bundle parent: %w", err)
	}
	dir, err := c.reserveDir(reason)
	if err != nil {
		return "", err
	}

	events := c.Recorder.Events()
	var evs bytes.Buffer
	_ = WriteTrace(&evs, events) // writes to a bytes.Buffer cannot fail
	if err := os.WriteFile(filepath.Join(dir, bundleEvents), evs.Bytes(), 0o644); err != nil {
		return dir, fmt.Errorf("obs: bundle events: %w", err)
	}
	if err := writeManifest(filepath.Join(dir, bundleManifest), reason, detail, len(events), c.Extra); err != nil {
		return dir, err
	}
	if err := writeMetricsFile(filepath.Join(dir, bundleMetrics), c.Registry); err != nil {
		return dir, err
	}
	if err := writeProfile(filepath.Join(dir, bundleGoroutines), "goroutine", 2); err != nil {
		return dir, err
	}
	if err := writeProfile(filepath.Join(dir, bundleHeap), "heap", 0); err != nil {
		return dir, err
	}
	if panicInfo != nil {
		if err := os.WriteFile(filepath.Join(dir, bundlePanic), panicInfo, 0o644); err != nil {
			return dir, fmt.Errorf("obs: bundle panic.txt: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "obs: forensics bundle written: %s (%s: %s)\n", dir, reason, detail)
	return dir, nil
}

// reserveDir creates a fresh bundle directory. Only the sequence number
// and the Mkdir need c.mu: each bundle owns its directory, so the file
// writes that follow run outside the lock, and a slow disk in one
// capture does not stall a concurrent one.
func (c *Capturer) reserveDir(reason string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pid := os.Getpid()
	for {
		dir := filepath.Join(c.Dir, fmt.Sprintf("%s-pid%d-%d", reason, pid, c.seq))
		c.seq++
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !os.IsExist(err) {
			return "", fmt.Errorf("obs: bundle dir: %w", err)
		}
	}
}

func writeManifest(path, reason, detail string, events int, extra map[string]string) error {
	exe, _ := os.Executable()
	host, _ := os.Hostname()
	m := Manifest{
		Reason:     reason,
		Detail:     detail,
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		PID:        os.Getpid(),
		Executable: exe,
		Args:       os.Args,
		GoVersion:  runtime.Version(),
		Hostname:   host,
		Events:     events,
		Extra:      extra,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: bundle manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeMetricsFile(path string, reg *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: bundle metrics: %w", err)
	}
	if err := WriteTable(f, reg.Snapshot()); err != nil {
		_ = f.Close()
		return fmt.Errorf("obs: bundle metrics: %w", err)
	}
	return f.Close()
}

func writeProfile(path, name string, dbg int) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("obs: bundle profile %q missing", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: bundle %s: %w", name, err)
	}
	if err := p.WriteTo(f, dbg); err != nil {
		_ = f.Close()
		return fmt.Errorf("obs: bundle %s: %w", name, err)
	}
	return f.Close()
}

// Bundle is a parsed, validated forensics bundle.
type Bundle struct {
	Dir      string
	Manifest Manifest
	Events   []Event
	// PanicValue and PanicGoroutine are filled from panic.txt when the
	// bundle was captured by CapturePanic: the panic value line and the
	// "goroutine N [running]" header of the panicking goroutine.
	PanicValue     string
	PanicGoroutine string
}

// ReadBundle loads and validates a forensics bundle directory:
// manifest.json must parse, events.jsonl must read through ReadTrace
// (so a last line without its '\n' is a truncated bundle), and every
// event must be of a known kind, with contiguous sequence numbers
// and non-decreasing ticks (the recorder window is a contiguous slice
// of the trace, not necessarily starting at seq 0), the event count
// must match the manifest, and goroutines.txt must exist and be
// non-empty. It is the validation ugtrace -postmortem applies.
func ReadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	data, err := os.ReadFile(filepath.Join(dir, bundleManifest))
	if err != nil {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	if err := json.Unmarshal(data, &b.Manifest); err != nil {
		return nil, fmt.Errorf("obs: bundle manifest: %w", err)
	}
	if b.Manifest.Reason == "" {
		return nil, fmt.Errorf("obs: bundle manifest: empty reason")
	}

	if data, err = os.ReadFile(filepath.Join(dir, bundleEvents)); err != nil {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	if b.Events, err = ReadTrace(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("obs: bundle events: %w", err)
	}
	for i, ev := range b.Events {
		if !KnownKind(ev.Kind) {
			return nil, fmt.Errorf("obs: bundle events line %d: unknown kind %q", i+1, ev.Kind)
		}
		if i == 0 {
			continue
		}
		if prev := b.Events[i-1]; ev.Seq != prev.Seq+1 {
			return nil, fmt.Errorf("obs: bundle events line %d: seq %d after %d (window must be contiguous)", i+1, ev.Seq, prev.Seq)
		} else if ev.Tick < prev.Tick {
			return nil, fmt.Errorf("obs: bundle events line %d: tick %d after %d (ticks must not decrease)", i+1, ev.Tick, prev.Tick)
		}
	}
	if len(b.Events) != b.Manifest.Events {
		return nil, fmt.Errorf("obs: bundle: %d events on disk, manifest says %d", len(b.Events), b.Manifest.Events)
	}

	gd, err := os.ReadFile(filepath.Join(dir, bundleGoroutines))
	if err != nil {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	if !strings.Contains(string(gd), "goroutine") {
		return nil, fmt.Errorf("obs: bundle goroutines.txt does not look like a goroutine dump")
	}

	if pd, err := os.ReadFile(filepath.Join(dir, bundlePanic)); err == nil {
		b.PanicValue, b.PanicGoroutine = parsePanicInfo(string(pd))
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("obs: bundle: %w", err)
	}
	return b, nil
}

// parsePanicInfo splits a panic.txt payload ("panic: <value>\n\n<stack>")
// into the panic value and the header line of the panicking goroutine.
func parsePanicInfo(s string) (value, goroutine string) {
	for _, line := range strings.Split(s, "\n") {
		if value == "" && strings.HasPrefix(line, "panic: ") {
			value = strings.TrimPrefix(line, "panic: ")
		}
		if goroutine == "" && strings.HasPrefix(line, "goroutine ") {
			goroutine = strings.TrimSuffix(strings.TrimSpace(line), ":")
		}
		if value != "" && goroutine != "" {
			break
		}
	}
	return value, goroutine
}
