package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Three windows of one second. The middle one holds a stall; the median
	// over windows must report the steady value, not the stall.
	var ss []sample
	for w, v := range []float64{1, 50, 2} {
		for i := 0; i < 100; i++ {
			ss = append(ss, sample{at: int64(w)*1e9 + int64(i)*1e7, v: v})
		}
	}
	if got := windowedPercentile(ss, 3e9, 3, 99); got != 2 {
		t.Errorf("median over windows of p99 = %v, want 2", got)
	}
	// Samples due outside the span belong to no window.
	ss = append(ss, sample{at: -1, v: 1e6}, sample{at: 3e9, v: 1e6})
	if got := windowedPercentile(ss, 3e9, 3, 99); got != 2 {
		t.Errorf("with out-of-span samples = %v, want 2", got)
	}
	// An empty window is skipped, not counted as zero.
	if got := windowedPercentile([]sample{{at: 0, v: 7}}, 3e9, 3, 50); got != 7 {
		t.Errorf("one sample in three windows = %v, want 7", got)
	}
	if got := windowsFor(6_750_000_000); got != 13 {
		t.Errorf("windowsFor(6.75 s) = %d, want 13", got)
	}
	if got := windowsFor(100_000_000); got != 3 {
		t.Errorf("windowsFor(0.1 s) = %d, want 3", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, rateHigh, 2*time.Second, 3)
	b := schedule(7, rateHigh, 2*time.Second, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := schedule(8, rateHigh, 2*time.Second, 3); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-2*rateHigh) > 4*math.Sqrt(2*rateHigh) {
		t.Errorf("%v arrivals in 2 s at %v/s", n, rateHigh)
	}
	kinds := make([]int, 3)
	for i, x := range a {
		if i > 0 && x.at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		kinds[x.kind]++
	}
	for k, n := range kinds {
		if n < len(a)/4 {
			t.Errorf("kind %d drawn %d times of %d", k, n, len(a))
		}
	}
}

func TestShapesAreAFunctionOfTheSeed(t *testing.T) {
	a := pickShapes(newRNG(7, 2), 2, 8, 1<<9)
	b := pickShapes(newRNG(7, 2), 2, 8, 1<<9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two sets of shapes")
	}
	for _, s := range a {
		if s.tasks < 486 || s.tasks > 538 {
			t.Errorf("shape of %d tasks is outside 5 %% of 512", s.tasks)
		}
		if got := randstructSeq(s.seed, s.depth); got != s.want {
			t.Errorf("reference result %d, recomputed %d", s.want, got)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b overlaps a", start: 20, end: 50, parent: 0},
		{name: "c sticks out", start: 90, end: 120, parent: 0},
		{name: "grandchild", start: 12, end: 18, parent: 1},
	}
	// root: 100 - ([10,50) + [90,100)) = 50; a: 20 - 6 = 14.
	want := []int64{50, 14, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPaceIsNeverEarly(t *testing.T) {
	for _, ahead := range []time.Duration{0, 200 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(ahead)
		got := pace(due)
		if got.Before(due) {
			t.Errorf("pace returned %v before due", due.Sub(got))
		}
		if late := got.Sub(due); late > 50*time.Millisecond {
			t.Errorf("pace returned %v late", late)
		}
	}
	// A due time already past is returned at once, and the lateness is the
	// caller's to record.
	due := time.Now().Add(-time.Millisecond)
	if late := pace(due).Sub(due); late < time.Millisecond {
		t.Errorf("lateness %v of a due time 1 ms past", late)
	}
}

func TestTraceFileIsChromeTraceJSON(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{name: "pass", layer: "bench", start: 0, end: 2000, parent: -1, op: 1})
	tr.add(span{name: "dag.Classify", layer: "dag", start: 100, end: 900, parent: root, op: 1, lane: 1})
	path, err := tr.write(t.TempDir(), "x.trace.json", map[string]any{"seed": 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Dur != 0.8 {
		t.Errorf("events = %+v", doc.TraceEvents)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, and the catalogue, which the program prints from, the same list.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, js []jm, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(js), len(defs))
		}
		for i, d := range defs {
			if got := (metricDef{js[i].Name, js[i].Unit, js[i].Better, js[i].Bound}); got != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, got, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	wls := suite()
	if len(doc.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the suite", len(doc.Workloads), len(wls))
	}
	for i, wl := range wls {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the suite %q: %q", i, doc.Workloads[i], wl.name, wl.why)
		}
	}
}

// TestSmoke runs all five workloads at a fiftieth of their length, untraced
// and then one of them traced, and checks that every metric is reported and
// every check of the outputs passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	o := options{seed: 7, seconds: 15, scale: 0.02, outDir: t.TempDir()}
	var out bytes.Buffer
	ok, err := run(o, &out)
	if err != nil || !ok {
		t.Fatalf("untraced suite: ok=%v err=%v\n%s", ok, err, out.String())
	}
	lines := resultLines(t, out.String())
	if len(lines) != len(suite()) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(suite()))
	}
	for i, line := range lines {
		checkResultLine(t, suite()[i].name, line, endToEnd, true)
	}

	o.workload, o.trace = "analyze", 1
	out.Reset()
	if ok, err = run(o, &out); err != nil || !ok {
		t.Fatalf("traced analyze: ok=%v err=%v\n%s", ok, err, out.String())
	}
	lines = resultLines(t, out.String())
	checkResultLine(t, "analyze traced", lines[len(lines)-1], perLayer, false)
	if _, err := os.Stat(o.outDir + "/analyze-seed7.trace.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func resultLines(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "{") {
			var rl resultLine
			if err := json.Unmarshal([]byte(l), &rl); err != nil {
				t.Fatalf("result line %q: %v", l, err)
			}
			lines = append(lines, rl)
		}
	}
	return lines
}

func checkResultLine(t *testing.T, what string, rl resultLine, defs []metricDef, nonZero bool) {
	t.Helper()
	if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rl.Correct, rl.Attempted, rl.Failed)
	}
	if len(rl.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(rl.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rl.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value <= 0) {
			t.Errorf("%s: metric %s = %+v (present %v)", what, d.name, m, ok)
		}
	}
}
