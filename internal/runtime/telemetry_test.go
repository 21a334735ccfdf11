package runtime

import (
	"errors"
	"io"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// teleFib is the spawn-heavy probe workload for telemetry tests.
func teleFib(rt *Runtime, w *W, n int) int {
	if n < 2 {
		return n
	}
	f := Spawn(rt, w, func(w *W) int { return teleFib(rt, w, n-1) })
	b := teleFib(rt, w, n-2)
	return f.Touch(w) + b
}

// TestTelemetryCountsWorkload: the always-on counters observe a plain Run
// workload — tasks, spawns by discipline, and the touch modes — without any
// profiling session.
func TestTelemetryCountsWorkload(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	before := rt.TelemetrySnapshot()
	if got := Run(rt, func(w *W) int { return teleFib(rt, w, 15) }); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
	d := rt.TelemetrySnapshot().Sub(before)
	if d.Total(telemetry.CTasksRun) == 0 {
		t.Error("no tasks counted")
	}
	// Spawn defaults to ParentFirst; fib(15) forks a few hundred futures
	// plus the root.
	if pf := d.Total(telemetry.CSpawnsParentFirst); pf < 100 {
		t.Errorf("parent-first spawns = %d, want hundreds", pf)
	}
	if ff := d.Total(telemetry.CSpawnsFutureFirst); ff != 0 {
		t.Errorf("future-first spawns = %d, want 0", ff)
	}
	// Every touch resolved somehow: the mode counters plus ready touches
	// (not separately counted) can't all be zero on a fork-join tree.
	if d.Total(telemetry.CInlineTouches)+d.Total(telemetry.CHelpedTasks)+
		d.Total(telemetry.CBlockedTouches)+d.Steals() == 0 {
		t.Error("no touch/steal activity observed at all")
	}
	// Stats must agree with the telemetry rows — it is a view over them.
	s := rt.Stats()
	full := rt.TelemetrySnapshot()
	if s.TasksRun != full.Total(telemetry.CTasksRun) {
		t.Errorf("Stats.TasksRun=%d vs telemetry=%d", s.TasksRun, full.Total(telemetry.CTasksRun))
	}
	if s.Steals != full.Steals() {
		t.Errorf("Stats.Steals=%d vs telemetry=%d", s.Steals, full.Steals())
	}
}

// TestShedCounterAndInFlightGauge: ErrSaturated rejections are observable
// as CJobsShed, and the admission gauges surface through MetricsMap.
func TestShedCounterAndInFlightGauge(t *testing.T) {
	rt := New(WithWorkers(2), WithMaxInFlight(1))
	defer rt.Shutdown()
	release := make(chan struct{})
	j, err := Submit(rt, func(*W) int { <-release; return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Submit(rt, func(*W) int { return 2 }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Submit err = %v, want ErrSaturated", err)
	}
	snap := rt.TelemetrySnapshot()
	if got := snap.Total(telemetry.CJobsShed); got != 1 {
		t.Errorf("CJobsShed = %d, want 1", got)
	}
	if got := snap.Total(telemetry.CJobsSubmitted); got != 1 {
		t.Errorf("CJobsSubmitted = %d, want 1", got)
	}
	m := rt.MetricsMap()
	if got := m["jobs_in_flight"]; got != 1 {
		t.Errorf("jobs_in_flight gauge = %v, want 1", got)
	}
	if got := m["jobs_max_in_flight"]; got != 1 {
		t.Errorf("jobs_max_in_flight gauge = %v, want 1", got)
	}
	close(release)
	if got := j.Wait(); got != 1 {
		t.Fatalf("job result = %d", got)
	}
	after := rt.TelemetrySnapshot()
	if got := after.Total(telemetry.CJobsCompleted); got != 1 {
		t.Errorf("CJobsCompleted = %d, want 1", got)
	}
	if rt.InFlight() != 0 {
		t.Errorf("InFlight = %d after completion", rt.InFlight())
	}
	// The completed job's latency landed in the histogram.
	if lat := rt.LatencyHist(); lat.Count() != 1 {
		t.Errorf("latency histogram count = %d, want 1", lat.Count())
	}
}

// TestSnapshotDeltasMatchJobStats is the property test tying the pooled
// telemetry deltas to the per-job Stats totals: on a runtime where ONLY
// jobs run, every executed task, inline touch, and blocked touch belongs to
// some job, so the snapshot delta must equal the sum over jobs exactly; the
// displacement counters are related by documented inequalities (pooled
// steals count at claim time and may exceed executed per-job steals; pooled
// helped counts stolen helps that per-job accounting files under steals).
func TestSnapshotDeltasMatchJobStats(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	before := rt.TelemetrySnapshot()

	const jobs = 40
	handles := make([]Job[int], jobs)
	for i := range handles {
		j, err := Submit(rt, func(w *W) int { return teleFib(rt, w, 10) })
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	var sum JobStats
	for _, j := range handles {
		if got := j.Wait(); got != 55 {
			t.Fatalf("job result = %d, want 55", got)
		}
		s := j.Stats()
		sum.TasksRun += s.TasksRun
		sum.Steals += s.Steals
		sum.InlineTouches += s.InlineTouches
		sum.HelpedTasks += s.HelpedTasks
		sum.BlockedTouches += s.BlockedTouches
	}
	d := rt.TelemetrySnapshot().Sub(before)

	if got := d.Total(telemetry.CTasksRun); got != sum.TasksRun {
		t.Errorf("delta tasks %d != Σ job tasks %d", got, sum.TasksRun)
	}
	if got := d.Total(telemetry.CInlineTouches); got != sum.InlineTouches {
		t.Errorf("delta inline %d != Σ job inline %d", got, sum.InlineTouches)
	}
	if got := d.Total(telemetry.CBlockedTouches); got != sum.BlockedTouches {
		t.Errorf("delta blocked %d != Σ job blocked %d", got, sum.BlockedTouches)
	}
	if got := d.Steals(); got < sum.Steals {
		t.Errorf("delta steals %d < Σ job steals %d (claim-time count can only exceed)", got, sum.Steals)
	}
	if got := d.Total(telemetry.CHelpedTasks); got < sum.HelpedTasks {
		t.Errorf("delta helped %d < Σ job helped %d", got, sum.HelpedTasks)
	}
	if got, want := d.Total(telemetry.CJobsSubmitted), int64(jobs); got != want {
		t.Errorf("delta submitted %d != %d", got, want)
	}
	if got, want := d.Total(telemetry.CJobsCompleted), int64(jobs); got != want {
		t.Errorf("delta completed %d != %d", got, want)
	}
	if got := rt.LatencyHist().Count(); got < jobs {
		t.Errorf("latency histogram count %d < %d jobs", got, jobs)
	}
}

// sampleLine matches a Prometheus text-format sample: name, optional
// {labels}, one float value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE(Inf)(NaN)]+$`)

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteMetricsExposition runs a workload on a flight-equipped runtime
// and checks what the golden contract (internal/shard, TestMetricsContract)
// cannot say about the /metrics page: every sample line is well formed, the
// values move with the jobs that ran, and a write error is sticky.
func TestWriteMetricsExposition(t *testing.T) {
	rt := New(WithWorkers(4), WithMaxInFlight(2), WithFlightRecorder(2048))
	defer rt.Shutdown()
	for i := 0; i < 4; i++ {
		j, err := SubmitWait(rt, func(w *W) int { return teleFib(rt, w, 12) })
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Wait(); got != 144 {
			t.Fatalf("job = %d", got)
		}
	}
	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"futurelocality_workers 4",
		"futurelocality_jobs_max_in_flight 2",
		`futurelocality_jobs_total{outcome="submitted"} 4`,
		`futurelocality_jobs_total{outcome="completed"} 4`,
		"futurelocality_jobs_in_flight 0",
		`futurelocality_job_latency_seconds_bucket{le="+Inf"} 4`,
		"futurelocality_job_latency_seconds_count 4",
		"futurelocality_job_queue_wait_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := rt.WriteMetrics(failingWriter{}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteMetrics to a failing writer = %v, want the writer's error", err)
	}
}

// TestFlightWithoutProfiling: DumpFlight and the analysis stack work on a
// runtime that never called StartProfile — the whole point of the recorder.
func TestFlightWithoutProfiling(t *testing.T) {
	rt := New(WithWorkers(4), WithFlightRecorder(4096))
	defer rt.Shutdown()
	if !rt.FlightEnabled() {
		t.Fatal("FlightEnabled = false")
	}
	if got := Run(rt, func(w *W) int { return teleFib(rt, w, 14) }); got != 377 {
		t.Fatalf("fib(14) = %d", got)
	}
	tr, err := rt.DumpFlight()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("flight window is empty after a workload")
	}
	env, err := rt.FlightEnvelope()
	if err != nil {
		t.Fatalf("FlightEnvelope: %v", err)
	}
	if env.Events == 0 || env.Tasks == 0 {
		t.Errorf("empty envelope: %+v", env)
	}
	rep, err := rt.FlightReport(profile.Options{NoMatrix: true, Trials: 2})
	if err != nil {
		t.Fatalf("FlightReport: %v", err)
	}
	if rep.P != 4 {
		t.Errorf("report P = %d, want 4", rep.P)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
	// Profiling on top of the flight recorder still works independently.
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	Run(rt, func(w *W) int { return teleFib(rt, w, 8) })
	if tr := rt.StopProfile(); tr == nil || tr.Len() == 0 {
		t.Error("profiling session lost while flight recorder active")
	}
}

// TestFlightEnvelopeAsksTheRuntimesCell: the live envelope is granted for the
// policy pair the runtime actually runs, not for the theorems' pair whatever
// it runs. The same future-first fib at four workers reads budget P·T∞² where
// the workers share one domain — the uniformly random thief the theorems
// assume — and 0 where they span two and the thief is domain-tiered, the cell
// DESIGN.md's table marks "no bound"; /metrics and MetricsMap export that
// reading.
func TestFlightEnvelopeAsksTheRuntimesCell(t *testing.T) {
	for _, tc := range []struct {
		topo    *topology.Topology
		granted bool
	}{
		{topology.Flat(4), true},
		{synth(t, "2x2"), false},
	} {
		rt := New(WithWorkers(4), WithTopology(tc.topo), WithDiscipline(FutureFirst), WithFlightRecorder(1<<14))
		if got := Run(rt, func(w *W) int { return teleFib(rt, w, 12) }); got != 144 {
			t.Fatalf("fib(12) = %d", got)
		}
		env, err := rt.FlightEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if tc.granted {
			want = 4 * env.Span * env.Span
		}
		if env.P != 4 || env.Span == 0 || env.Truncated != 0 || env.Budget != want {
			t.Errorf("%s (%v): envelope %+v, want P=4, a whole window and budget %d", tc.topo.Source, rt.StealPolicy(), env, want)
		}
		if got := rt.MetricsMap()["flight"].(map[string]any)["envelope"]; got != want {
			t.Errorf("%s: MetricsMap flight envelope = %v, want %d", tc.topo.Source, got, want)
		}
		rt.Shutdown()
	}
}

// TestDumpFlightWithoutRecorder: a plain runtime reports ErrNoFlight.
func TestDumpFlightWithoutRecorder(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	if _, err := rt.DumpFlight(); !errors.Is(err, ErrNoFlight) {
		t.Fatalf("DumpFlight err = %v, want ErrNoFlight", err)
	}
	if _, err := rt.FlightEnvelope(); !errors.Is(err, ErrNoFlight) {
		t.Fatalf("FlightEnvelope err = %v, want ErrNoFlight", err)
	}
}

// TestTelemetryRaceStress is the -race stress test of the observability
// surface: a serve-style Submit storm with shedding, concurrent with
// continuous Snapshot, Stats, DumpFlight, envelope, and exposition readers.
// The assertions are conservation laws (submitted = completed + shed, tasks
// observed); the real check is the race detector over every reader/writer
// pair.
func TestTelemetryRaceStress(t *testing.T) {
	rt := New(WithWorkers(4), WithMaxInFlight(8), WithFlightRecorder(512))
	defer rt.Shutdown()

	var submitted, shed, completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: every observability entry point, hammered concurrently.
	readers := []func(){
		func() { rt.TelemetrySnapshot() },
		func() { rt.Stats() },
		func() { _, _ = rt.DumpFlight() },
		func() { _, _ = rt.FlightEnvelope() },
		func() { _ = rt.WriteMetrics(io.Discard) },
		func() { rt.MetricsMap() },
		func() { rt.LatencyHist().Quantile(0.99) },
		func() { rt.InFlight() },
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}(read)
	}

	// The storm: four submitters, shedding on saturation.
	const perSubmitter = 300
	var storm sync.WaitGroup
	for g := 0; g < 4; g++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := Submit(rt, func(w *W) int { return teleFib(rt, w, 8) })
				if errors.Is(err, ErrSaturated) {
					shed.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				submitted.Add(1)
				if got := j.Wait(); got != 21 {
					t.Errorf("job = %d, want 21", got)
					return
				}
				completed.Add(1)
			}
		}()
	}
	storm.Wait()
	close(stop)
	wg.Wait()

	snap := rt.TelemetrySnapshot()
	if got := snap.Total(telemetry.CJobsSubmitted); got != submitted.Load() {
		t.Errorf("CJobsSubmitted = %d, want %d", got, submitted.Load())
	}
	if got := snap.Total(telemetry.CJobsCompleted); got != completed.Load() {
		t.Errorf("CJobsCompleted = %d, want %d", got, completed.Load())
	}
	if got := snap.Total(telemetry.CJobsShed); got != shed.Load() {
		t.Errorf("CJobsShed = %d, want %d", got, shed.Load())
	}
	if snap.Total(telemetry.CTasksRun) == 0 {
		t.Error("no tasks observed by telemetry during the storm")
	}
}
