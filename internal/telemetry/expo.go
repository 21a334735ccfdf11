package telemetry

// Exposition: a minimal writer for the Prometheus text format (version
// 0.0.4 — the format every scraper accepts) plus an expvar-compatible map
// rendering. Hand-rolled rather than imported: the repo is dependency-free
// by design, and the text format is three line shapes (# HELP, # TYPE,
// sample), which is less code than a client library's surface.

import (
	"fmt"
	"io"
	"math"
	"strings"

	"futurelocality/internal/stats"
)

// Expo writes one exposition page. Metric families must be emitted in one
// call each (HELP/TYPE once, then every sample), which the per-kind methods
// enforce by construction.
type Expo struct {
	w   io.Writer
	err error
}

// NewExpo starts an exposition page on w. Errors are sticky; check Err once
// at the end.
func NewExpo(w io.Writer) *Expo { return &Expo{w: w} }

// Err returns the first write error, if any.
func (e *Expo) Err() error { return e.err }

func (e *Expo) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

func (e *Expo) header(name, help, typ string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelString renders label pairs ("k", "v", "k2", "v2", ...) as
// {k="v",k2="v2"}, or "" for none.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[i], labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// CounterVec emits a counter family with one sample per (labels, value)
// entry; each entry's labels are alternating key/value strings (none for
// a single-sample family).
func (e *Expo) CounterVec(name, help string, samples []LabeledValue) {
	e.header(name, help, "counter")
	for _, s := range samples {
		e.printf("%s%s %d\n", name, labelString(s.Labels), s.Value)
	}
}

// Gauge emits a single-sample gauge family.
func (e *Expo) Gauge(name, help string, v float64) {
	e.header(name, help, "gauge")
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		e.printf("%s %d\n", name, int64(v))
	} else {
		e.printf("%s %g\n", name, v)
	}
}

// GaugeVec emits a gauge family with one sample per (labels, value) entry —
// the shape the sharded pool needs, where the same gauge (in-flight,
// workers) exists once per shard and must land in a single family with one
// HELP/TYPE block.
func (e *Expo) GaugeVec(name, help string, samples []LabeledValue) {
	e.header(name, help, "gauge")
	for _, s := range samples {
		e.printf("%s%s %d\n", name, labelString(s.Labels), s.Value)
	}
}

// LabeledValue is one sample of a vector family.
type LabeledValue struct {
	Labels []string // alternating key, value
	Value  int64
}

// Histogram emits a stats.HistSnapshot as a Prometheus histogram family:
// cumulative buckets with `le` upper bounds, the implicit +Inf bucket, and
// the _sum/_count pair. scale divides bucket bounds and the sum — pass 1e9
// to expose nanosecond observations in seconds, the Prometheus convention.
// Empty buckets inside the populated range are emitted (cumulative counts
// must not skip), but the long empty tail above the largest sample is
// collapsed into +Inf.
func (e *Expo) Histogram(name, help string, h stats.HistSnapshot, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	e.header(name, help, "histogram")
	top := 0
	for i, c := range h.Counts {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.Counts[i]
		e.printf("%s_bucket{le=%q} %d\n", name, formatLe(float64(stats.BucketUpper(i))/scale), cum)
	}
	total := h.Count()
	e.printf("%s_bucket{le=\"+Inf\"} %d\n", name, total)
	e.printf("%s_sum %g\n", name, float64(h.Sum)/scale)
	e.printf("%s_count %d\n", name, total)
}

// formatLe renders a bucket bound compactly (no exponent for the common
// sub-second range, full precision above).
func formatLe(v float64) string {
	return fmt.Sprintf("%g", v)
}

// Map renders a snapshot as an expvar-compatible map: one entry per counter
// total (the steal count under "steals") and a "per_worker" sub-map of rows.
// Values are plain ints/maps so expvar's JSON rendering needs no custom
// types.
func Map(s Snapshot) map[string]any {
	m := make(map[string]any, int(NumCounters)+1)
	for c := Counter(0); c < NumCounters; c++ {
		m[c.name()] = s.Total(c)
	}
	perWorker := make(map[string]any, s.workers())
	for i := 0; i < s.workers(); i++ {
		row := make(map[string]any, int(NumCounters))
		for c := Counter(0); c < NumCounters; c++ {
			if v := s.worker(i, c); v != 0 {
				row[c.name()] = v
			}
		}
		perWorker[fmt.Sprint(i)] = row
	}
	m["per_worker"] = perWorker
	return m
}
