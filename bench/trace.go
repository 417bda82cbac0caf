package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval. Spans of one operation (an instance
// solve or a job) share Op; Parent is the span that caused this one
// (0 for an operation's root span).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace collects the spans and counts of one traced pass in memory and
// writes them out when the pass ends. A nil *Trace records nothing, so
// the untraced passes run the same code with the decorators absent.
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []Span
	counts map[string]float64
}

func newTrace() *Trace {
	return &Trace{t0: time.Now(), counts: map[string]float64{}}
}

// Begin opens a span and returns its id (0 on a nil trace).
func (t *Trace) Begin(parent int, op, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// End closes a span opened by Begin.
func (t *Trace) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Count adds d to a named count, recorded at the same boundaries as the
// spans so ratios are taken where the work happens.
func (t *Trace) Count(name string, d float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += d
	t.mu.Unlock()
}

// Max raises a named count to v if v is larger.
func (t *Trace) Max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

func (t *Trace) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// write stores the pass as bench/out/trace-<workload>.json.
func (t *Trace) write(dir, workload string) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Spans    []Span             `json:"spans"`
		Counts   map[string]float64 `json:"counts"`
	}{workload, t.spans, t.counts})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// totals sums span durations in seconds and counts spans, by name.
func totals(spans []Span) (sum, calls map[string]float64) {
	sum, calls = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.End-s.Start) / 1e9
		calls[s.Name]++
	}
	return sum, calls
}

// selfTimes returns each span name's self time in seconds: a span's
// duration minus the part of its interval that its child spans cover.
// Children may overlap one another (two ranks solving under one
// operation), so the covered part is the union of their intervals
// clipped to the parent, not their sum.
func selfTimes(spans []Span) map[string]float64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}
