package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file renders a Registry snapshot in the Prometheus text
// exposition format (version 0.0.4), the format the /metrics endpoint
// of the debug server serves. The mapping from the registry's kinds:
//
//   counter      →  TYPE counter, one sample
//   gauge        →  TYPE gauge, one sample (gauge.float: a float one)
//   gauge.hw     →  TYPE gauge, sample on <name>_highwater
//   histogram    →  TYPE summary: <name>{quantile="0.5|0.95|0.99"},
//                   <name>_sum, <name>_count
//
// Metric names are sanitized to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]* — the registry's dotted names (ug.comm.bytes)
// come out underscored (ug_comm_bytes). Each series is preceded by its
// # HELP and # TYPE lines, and TYPE always precedes the first sample of
// its family, which prom_test.go enforces line by line.

// sanitizeMetricName maps an arbitrary registry name into the Prometheus
// metric-name charset. Invalid runes become '_'; a leading digit gets a
// '_' prefix. The empty name becomes "_".
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		valid := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		switch {
		case valid:
			b.WriteByte(c)
		case c >= '0' && c <= '9': // leading digit
			b.WriteByte('_')
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promValue formats a sample value: integral kinds as integers,
// everything else in Go's shortest-roundtrip float form (Prometheus
// accepts scientific notation).
func promValue(kind string, v float64) string {
	if integerKind(kind) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily is one exposition family: a TYPE, a HELP and its samples in
// a fixed order.
type promFamily struct {
	name    string
	typ     string // "counter", "gauge", "summary"
	help    string
	samples []promSample
}

type promSample struct {
	suffix string // appended to the family name ("_sum", "_count", "")
	labels string // rendered label set incl. braces, or ""
	value  string
}

// WriteProm renders a metrics snapshot (Registry.Snapshot order) as
// Prometheus text exposition. Families are emitted in sorted-name order;
// within a histogram family the quantile series come first (ascending
// quantile), then _sum and _count.
func WriteProm(w io.Writer, ms []Metric) error {
	families := map[string]*promFamily{}
	var order []string
	family := func(name, typ, help string) *promFamily {
		f := families[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ, help: help}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, m := range ms {
		base := sanitizeMetricName(m.Name)
		val := promValue(m.Kind, m.Value)
		switch m.Kind {
		case "counter", "counter.float":
			f := family(base, "counter", fmt.Sprintf("Counter %s.", m.Name))
			f.samples = append(f.samples, promSample{value: val})
		case "gauge", "gauge.float":
			f := family(base, "gauge", fmt.Sprintf("Gauge %s.", m.Name))
			f.samples = append(f.samples, promSample{value: val})
		case "gauge.hw":
			f := family(base+"_highwater", "gauge", fmt.Sprintf("High-watermark of gauge %s.", m.Name))
			f.samples = append(f.samples, promSample{value: val})
		case "hist.count":
			f := family(base, "summary", fmt.Sprintf("Distribution %s.", m.Name))
			f.samples = append(f.samples, promSample{suffix: "_count", value: val})
		case "hist.sum":
			f := family(base, "summary", fmt.Sprintf("Distribution %s.", m.Name))
			f.samples = append(f.samples, promSample{suffix: "_sum", value: val})
		case "hist.p50":
			f := family(base, "summary", fmt.Sprintf("Distribution %s.", m.Name))
			f.samples = append(f.samples, promSample{labels: `{quantile="0.5"}`, value: val})
		case "hist.p95":
			f := family(base, "summary", fmt.Sprintf("Distribution %s.", m.Name))
			f.samples = append(f.samples, promSample{labels: `{quantile="0.95"}`, value: val})
		case "hist.p99":
			f := family(base, "summary", fmt.Sprintf("Distribution %s.", m.Name))
			f.samples = append(f.samples, promSample{labels: `{quantile="0.99"}`, value: val})
		case "hist.mean":
			// Derivable from _sum/_count; no standard exposition series.
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := families[name]
		// Quantile series ascending, then _sum, then _count — the
		// conventional summary layout.
		sort.SliceStable(f.samples, func(i, j int) bool {
			return sampleRank(f.samples[i]) < sampleRank(f.samples[j])
		})
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleRank orders a summary family's samples: quantiles (by ascending
// quantile label, relying on the fixed "0.5" < "0.95" < "0.99" string
// order), then _sum, then _count.
func sampleRank(s promSample) int {
	switch s.suffix {
	case "_sum":
		return 2
	case "_count":
		return 3
	}
	switch s.labels {
	case `{quantile="0.5"}`:
		return 0
	case `{quantile="0.95"}`:
		return 1
	}
	return 1 // quantile "0.99" sorts after 0.95 via stable sort
}

var processStart = time.Now() // the origin of process_uptime_seconds

// ProcessMetrics returns the process-level gauges the /metrics endpoint
// serves alongside the registry: uptime, goroutine count, live heap
// bytes, GC cycle count and cumulative GC pause seconds — the health
// signals a scraper needs to spot a restarted, leaking or thrashing
// process.
func ProcessMetrics() []Metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []Metric{
		{Name: "process_uptime_seconds", Kind: "gauge.float", Value: time.Since(processStart).Seconds()},
		{Name: "go_goroutines", Kind: "gauge", Value: float64(runtime.NumGoroutine())},
		{Name: "go_heap_alloc_bytes", Kind: "gauge", Value: float64(ms.HeapAlloc)},
		{Name: "go_gc_cycles_total", Kind: "counter", Value: float64(ms.NumGC)},
		// counter.float: monotone like a counter, but fractional seconds —
		// rendered as a counter family with a float sample.
		{Name: "go_gc_pause_seconds_total", Kind: "counter.float", Value: float64(ms.PauseTotalNs) / 1e9},
	}
}
