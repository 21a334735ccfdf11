package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one interval at a layer boundary, recorded by the benchmark
// around a call into the layer. Spans of one operation share op; parent is
// the index of the enclosing span, or -1.
type span struct {
	name       string // what ran, e.g. "Submit" or "sim.Simulate"
	layer      string // the layer charged, e.g. "job"
	start, end int64  // ns since the tracer's origin
	parent     int
	op         int64
	lane       int // the trace viewer's row: a client, a worker or a stage
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. The untraced run has a
// nil *tracer and workloads skip recording altogether, so the end-to-end
// numbers never pay for it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall-clock reading to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// finish sets the end of a span that was added before its children.
func (t *tracer) finish(i int, end time.Time) {
	t.mu.Lock()
	t.spans[i].end = t.at(end)
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap one another and may
// stick out of the parent; only covered time inside the parent is removed.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfMsByLayer sums self time per layer, in ms.
func (t *tracer) selfMsByLayer() map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(t.spans) {
		out[t.spans[i].layer] += float64(ns) / 1e6
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing load directly. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON under dir.
func (t *tracer) write(dir, file string, meta map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output directory: %w", err)
	}
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		}
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns", "otherData": meta})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
