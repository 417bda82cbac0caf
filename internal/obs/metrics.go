package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil *Counter is the
// disabled counter; all operations on it are no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level with a high-watermark. The nil *Gauge
// is the disabled gauge; all operations on it are no-ops. Gauges are
// lock-free and safe to update from any goroutine.
type Gauge struct {
	v  atomic.Int64
	hw atomic.Int64
}

// Set assigns the current level and raises the high-watermark if passed.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		old := g.hw.Load()
		if v <= old || g.hw.CompareAndSwap(old, v) {
			return
		}
	}
}

// Add adjusts the level by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	v := g.v.Add(d)
	for {
		old := g.hw.Load()
		if v <= old || g.hw.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current level (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HighWater returns the maximum level ever set (0 on the nil gauge).
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hw.Load()
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; an implicit +Inf bucket catches the rest). The nil
// *Histogram is the disabled histogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	n      int64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.n++
	h.sum += x
	h.mu.Unlock()
}

// Count returns the number of observations (0 on the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations (0 on the nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed samples
// by linear interpolation inside the bucket holding the target rank —
// the usual bucketed-histogram estimate, exact only at bucket edges.
// Samples landing in the +Inf overflow bucket are reported as the
// largest finite bound (the estimate saturates there). Returns 0 on the
// nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum int64
	for i, cnt := range h.counts {
		prev := cum
		cum += cnt
		if float64(cum) < target || cnt == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf overflow bucket: no finite upper edge
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-float64(prev))/float64(cnt)
	}
	return h.bounds[len(h.bounds)-1]
}

// Metric is one snapshotted value for table rendering.
type Metric struct {
	Name  string
	Kind  string // "counter", "gauge", "gauge.hw", "hist.count", "hist.sum", "hist.mean", "hist.p50/p95/p99"
	Value float64
}

// integerKind reports whether a snapshot kind carries an integral value
// (counters, gauges and observation counts) as opposed to the float
// estimates derived from histogram contents.
func integerKind(kind string) bool {
	switch kind {
	case "counter", "gauge", "gauge.hw", "hist.count":
		return true
	}
	return false
}

// Registry names and owns metrics. The nil *Registry is the disabled
// registry: Counter/Gauge/Histogram return their nil (disabled)
// instruments, so instrumented code needs no enablement checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every metric's current value, sorted by name then
// kind so output is deterministic.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: float64(g.Value())})
		out = append(out, Metric{Name: name, Kind: "gauge.hw", Value: float64(g.HighWater())})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Kind: "hist.count", Value: float64(h.Count())})
		if n := h.Count(); n > 0 {
			out = append(out, Metric{Name: name, Kind: "hist.sum", Value: h.Sum()})
			out = append(out, Metric{Name: name, Kind: "hist.mean", Value: h.Sum() / float64(n)})
			out = append(out, Metric{Name: name, Kind: "hist.p50", Value: h.Quantile(0.50)})
			out = append(out, Metric{Name: name, Kind: "hist.p95", Value: h.Quantile(0.95)})
			out = append(out, Metric{Name: name, Kind: "hist.p99", Value: h.Quantile(0.99)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteTable renders metrics as an aligned name/kind/value table.
func WriteTable(w io.Writer, ms []Metric) error {
	nameW, kindW := len("metric"), len("kind")
	for _, m := range ms {
		if len(m.Name) > nameW {
			nameW = len(m.Name)
		}
		if len(m.Kind) > kindW {
			kindW = len(m.Kind)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", nameW, "metric", kindW, "kind", "value"); err != nil {
		return err
	}
	for _, m := range ms {
		// Counters, gauges and counts are integers; %g would flip large
		// ones (e.g. transfer bytes past 1e7) into scientific notation on
		// -stats tables and bundles. Only histogram-derived estimates are
		// true floats.
		var err error
		if integerKind(m.Kind) {
			_, err = fmt.Fprintf(w, "%-*s  %-*s  %d\n", nameW, m.Name, kindW, m.Kind, int64(m.Value))
		} else {
			_, err = fmt.Fprintf(w, "%-*s  %-*s  %g\n", nameW, m.Name, kindW, m.Kind, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
