package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"futurelocality/internal/dag"
	"futurelocality/internal/stats"
)

// TestRowPadding pins the anti-false-sharing layout: rows are cache-line
// multiples, so two workers' rows never share a line — two lines at the
// current fifteen columns.
func TestRowPadding(t *testing.T) {
	if sz := unsafe.Sizeof(Row{}); sz%cacheLine != 0 || sz != 128 {
		t.Fatalf("Row size %d, want 128 (a cache-line multiple)", sz)
	}
}

// TestCounterNames: every counter has a distinct, non-"unknown" name.
func TestCounterNames(t *testing.T) {
	seen := map[string]Counter{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.name()
		if n == "unknown" || n == "" {
			t.Errorf("counter %d has no name", c)
		}
		if prev, dup := seen[n]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, n)
		}
		seen[n] = c
	}
}

// TestPolicyCounterMapping pins the policy→counter routing, and the steal
// column's locality name.
func TestPolicyCounterMapping(t *testing.T) {
	if CStealsIntraDomain != CSteals {
		t.Fatal("CStealsIntraDomain is not the steal column")
	}
	if SpawnCounter(dag.FutureFirst) != CSpawnsFutureFirst ||
		SpawnCounter(dag.ParentFirst) != CSpawnsParentFirst {
		t.Fatal("SpawnCounter mapping wrong")
	}
}

// TestSnapshotDelta: totals, per-row reads, Steals aggregation, and the
// Sub window semantics.
func TestSnapshotDelta(t *testing.T) {
	s := NewSet(2)
	s.Row(0).Inc(CTasksRun)
	s.Row(0).Add(CSteals, 3)
	s.Row(1).Add(CTasksRun, 4)
	s.Row(1).Inc(CSteals)
	s.External().Inc(CJobsSubmitted)

	snap := s.Snapshot()
	if got := snap.Total(CTasksRun); got != 5 {
		t.Fatalf("Total(CTasksRun) = %d, want 5", got)
	}
	if got := snap.Steals(); got != 4 {
		t.Fatalf("Steals() = %d, want 4", got)
	}
	if got := snap.worker(1, CTasksRun); got != 4 {
		t.Fatalf("Worker(1, CTasksRun) = %d, want 4", got)
	}
	if got := snap.External(CJobsSubmitted); got != 1 {
		t.Fatalf("External(CJobsSubmitted) = %d, want 1", got)
	}

	s.Row(0).Add(CTasksRun, 10)
	s.External().Inc(CJobsCompleted)
	delta := s.Snapshot().Sub(snap)
	if got := delta.Total(CTasksRun); got != 10 {
		t.Fatalf("delta Total(CTasksRun) = %d, want 10", got)
	}
	if got := delta.Total(CJobsCompleted); got != 1 {
		t.Fatalf("delta Total(CJobsCompleted) = %d, want 1", got)
	}
	if got := delta.Steals(); got != 0 {
		t.Fatalf("delta Steals() = %d, want 0", got)
	}
}

// TestConcurrentIncrements: racing writers on distinct rows plus a
// concurrent snapshotter lose nothing (the -race build checks the
// synchronization as well).
func TestConcurrentIncrements(t *testing.T) {
	const workers, per = 4, 20000
	s := NewSet(workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := s.Row(i)
			for j := 0; j < per; j++ {
				row.Inc(CTasksRun)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = s.Snapshot().Total(CTasksRun)
		}
	}()
	wg.Wait()
	<-done
	if got := s.Snapshot().Total(CTasksRun); got != workers*per {
		t.Fatalf("Total = %d, want %d", got, workers*per)
	}
}

// TestExpoFormat checks the Prometheus text page shape: HELP/TYPE headers,
// labeled samples, and a histogram's cumulative buckets with +Inf and
// _sum/_count.
func TestExpoFormat(t *testing.T) {
	var sb strings.Builder
	e := NewExpo(&sb)
	e.CounterVec("test_tasks_total", "Tasks.", []LabeledValue{{Value: 42}})
	e.CounterVec("test_steals_total", "Steals.", []LabeledValue{
		{Labels: []string{"policy", "random-single"}, Value: 7},
		{Labels: []string{"policy", "steal-half"}, Value: 0},
	})
	e.Gauge("test_in_flight", "In flight.", 3)
	var h stats.Histogram
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	e.Histogram("test_latency_seconds", "Latency.", h.Snapshot(), 1) // scale 1: raw values
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_tasks_total Tasks.\n# TYPE test_tasks_total counter\ntest_tasks_total 42\n",
		`test_steals_total{policy="random-single"} 7`,
		`test_steals_total{policy="steal-half"} 0`,
		"# TYPE test_in_flight gauge\ntest_in_flight 3\n",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="1"} 1`, // bucket 1: value 1
		`test_latency_seconds_bucket{le="3"} 3`, // bucket 2: values 2-3, cumulative 3
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 7",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestExpoHistogramCumulative: cumulative bucket counts never decrease and
// intermediate empty buckets are still emitted (scrapers require monotone
// le series without gaps below the top bucket).
func TestExpoHistogramCumulative(t *testing.T) {
	var h stats.Histogram
	h.Observe(1)
	h.Observe(1000) // leaves many empty buckets between
	var sb strings.Builder
	e := NewExpo(&sb)
	e.Histogram("x", "X.", h.Snapshot(), 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	prev := int64(-1)
	buckets := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "x_bucket{") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(l[strings.LastIndexByte(l, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", l, err)
		}
		if v < prev {
			t.Fatalf("cumulative count decreased at %q", l)
		}
		prev = v
	}
	// buckets 0..10 (value 1000 has bit length 10) plus +Inf.
	if buckets != 12 {
		t.Fatalf("emitted %d bucket lines, want 12", buckets)
	}
}

// TestMap: the expvar rendering exposes every counter total plus the
// per-worker breakdown.
func TestMap(t *testing.T) {
	s := NewSet(2)
	s.Row(1).Add(CTasksRun, 9)
	s.Row(0).Inc(CSteals)
	m := Map(s.Snapshot())
	if got := m["tasks_run"]; got != int64(9) {
		t.Fatalf("map tasks_run = %v, want 9", got)
	}
	if got := m["steals"]; got != int64(1) {
		t.Fatalf("map steals = %v, want 1", got)
	}
	pw, ok := m["per_worker"].(map[string]any)
	if !ok {
		t.Fatal("per_worker missing")
	}
	row1, ok := pw["1"].(map[string]any)
	if !ok || row1["tasks_run"] != int64(9) {
		t.Fatalf("per_worker[1] = %v, want tasks_run 9", pw["1"])
	}
}

// External returns the external row's value of counter c.
func (s Snapshot) External(c Counter) int64 { return s.Rows[len(s.Rows)-1][c] }
