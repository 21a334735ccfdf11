package runtime

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
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

// stolenTouch spawns a child that holds at a gate until its spawner has
// blocked on it, waits until a thief has taken the child, and spawns a leaf to
// help with meanwhile: on two or more workers one steal and one blocked touch
// for certain, and one help unless another thief takes the leaf first.
// Returns 2.
func stolenTouch(rt *Runtime, w *W) int {
	gate := make(chan struct{})
	f := Spawn(rt, w, func(*W) int { <-gate; return 1 })
	waitUntil(func() bool { return !f.unstarted() })
	g := Spawn(rt, w, leafIntFn)
	go func() {
		waitUntil(func() bool { return f.waiter.Load() != nil })
		close(gate)
	}()
	return f.Touch(w) + g.Touch(w)
}

// TestTraceCountsMatchSnapshotDeltas is the conservation law between the two
// places a scheduler fact lives: a worker's telemetry row counts it and a
// profiled trace records it once, tagged with its task's job (Event.Job).
// Over a mix of concurrent Submit and SubmitAll jobs and a job-less Run (with
// a stolenTouch on two or more workers, so that every count moves), summed
// over every job, job 0 included, the trace's tasks begun, KindSteal
// and KindHelp events and touches in ModeInline and ModeBlocked equal the
// snapshot deltas of CTasksRun, CSteals, CHelpedTasks, CInlineTouches and
// CBlockedTouches, at every worker count. Each job's begun tasks are exactly
// its own computation's, however its tasks interleaved with the other jobs'
// on the workers. The one exception the law has is not in the mix: an
// external FutureFirst spawn dives on the calling goroutine, which records
// the task's begin and end but is no worker, so no row counts the task.
func TestTraceCountsMatchSnapshotDeltas(t *testing.T) {
	const submitters, perSubmitter, batch, items = 2, 4, 8, 64
	body := func(rt *Runtime) func(*W) int {
		return func(w *W) int { return teleFib(rt, w, 10) + passedTree(rt, w, 4) }
	}
	const bodyResult = 55 + 31
	// teleFib(10) spawns cutFibSpawns(10, 2) futures, passedTree(4) two per
	// inner node, and the root is one more task.
	bodyTasks := cutFibSpawns(10, 2) + 2*(1<<4-1) + 1
	for _, workers := range []int{1, 2, 4} {
		rt := newRT(t, workers)
		before := rt.TelemetrySnapshot()
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var ids []uint64
		check := func(jobs []Job[int]) {
			for i := range jobs {
				if got := jobs[i].Wait(); got != bodyResult {
					t.Errorf("W=%d: job %d = %d, want %d", workers, jobs[i].ID(), got, bodyResult)
				}
				mu.Lock()
				ids = append(ids, jobs[i].ID())
				mu.Unlock()
			}
		}
		for range submitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var jobs []Job[int]
				for range perSubmitter {
					j, err := Submit(rt, body(rt))
					if err != nil {
						t.Error(err)
						return
					}
					jobs = append(jobs, j)
				}
				check(jobs)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fns := make([]func(*W) int, batch)
			for i := range fns {
				fns[i] = body(rt)
			}
			jobs, err := SubmitAll(rt, fns, nil)
			if err != nil {
				t.Error(err)
			}
			check(jobs)
		}()
		got := Run(rt, func(w *W) int {
			st := Produce(rt, w, items, func(_ *W, i int) int { return i })
			sum := 0
			for i := range items {
				sum += st.Get(w, i)
			}
			if workers > 1 {
				sum += stolenTouch(rt, w) - 2
			}
			return sum + passedTree(rt, w, 5)
		})
		if want := items*(items-1)/2 + 63; got != want {
			t.Fatalf("W=%d: Run = %d, want %d", workers, got, want)
		}
		wg.Wait()
		tr := rt.StopProfile()
		d := rt.TelemetrySnapshot().Sub(before)
		rt.Shutdown()

		// Per job, then summed over the jobs.
		type tally struct{ begun, steals, helped, inline, blocked int64 }
		byJob := map[uint64]*tally{}
		for _, ev := range tr.Events() {
			c := byJob[ev.Job]
			if c == nil {
				c = &tally{}
				byJob[ev.Job] = c
			}
			switch ev.Kind {
			case profile.KindBegin:
				c.begun++
			case profile.KindSteal:
				c.steals++
			case profile.KindHelp:
				c.helped++
			case profile.KindTouch:
				switch ev.Mode {
				case profile.ModeInline:
					c.inline++
				case profile.ModeBlocked:
					c.blocked++
				}
			}
		}
		if len(ids) != submitters*perSubmitter+batch {
			t.Fatalf("W=%d: %d jobs completed, want %d", workers, len(ids), submitters*perSubmitter+batch)
		}
		var sum tally
		for _, id := range append(ids, 0) {
			c := byJob[id]
			if c == nil {
				t.Fatalf("W=%d: job %d has no events", workers, id)
			}
			delete(byJob, id)
			if id != 0 && c.begun != bodyTasks {
				t.Errorf("W=%d: job %d began %d tasks, want its own %d", workers, id, c.begun, bodyTasks)
			}
			sum.begun += c.begun
			sum.steals += c.steals
			sum.helped += c.helped
			sum.inline += c.inline
			sum.blocked += c.blocked
		}
		if len(byJob) != 0 {
			t.Errorf("W=%d: events of jobs nobody submitted: %v", workers, byJob)
		}
		for _, c := range []struct {
			name         string
			trace, delta int64
		}{
			{"tasks begun / CTasksRun", sum.begun, d.Total(telemetry.CTasksRun)},
			{"KindSteal / CSteals", sum.steals, d.Total(telemetry.CSteals)},
			{"KindHelp / CHelpedTasks", sum.helped, d.Total(telemetry.CHelpedTasks)},
			{"ModeInline / CInlineTouches", sum.inline, d.Total(telemetry.CInlineTouches)},
			{"ModeBlocked / CBlockedTouches", sum.blocked, d.Total(telemetry.CBlockedTouches)},
		} {
			if c.trace != c.delta {
				t.Errorf("W=%d: %s: trace %d, snapshot delta %d", workers, c.name, c.trace, c.delta)
			}
		}
		jobs := int64(len(ids))
		if got := d.Total(telemetry.CJobsSubmitted); got != jobs {
			t.Errorf("W=%d: delta submitted %d, want %d", workers, got, jobs)
		}
		if got := d.Total(telemetry.CJobsCompleted); got != jobs {
			t.Errorf("W=%d: delta completed %d, want %d", workers, got, jobs)
		}
		if got := rt.LatencyHist().Count(); got != uint64(jobs) {
			t.Errorf("W=%d: latency histogram count %d, want %d", workers, got, jobs)
		}
		t.Logf("W=%d: %d tasks, %d steals, %d helped, %d inline, %d blocked", workers,
			sum.begun, sum.steals, sum.helped, sum.inline, sum.blocked)
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
		j, err := Submit(rt, func(w *W) int { return teleFib(rt, w, 12) })
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
	if len(env.Recon.Tasks) == 0 || env.Work == 0 {
		t.Errorf("empty flight reading: %v", env)
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

// TestFlightMatchesSession: the flight recorder and a profiling session are
// one recorder with and without a bound, fed by the same hook. Where the
// window holds the whole run, both return the same events, log for log.
func TestFlightMatchesSession(t *testing.T) {
	rt := New(WithWorkers(4), WithFlightRecorder(1<<14))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	if got := Run(rt, func(w *W) int { return teleFib(rt, w, 12) }); got != 144 {
		t.Fatalf("fib(12) = %d", got)
	}
	rt.Shutdown() // quiescent: no worker records past this point
	session := rt.StopProfile()
	flight, err := rt.DumpFlight()
	if err != nil {
		t.Fatal(err)
	}
	if session.Len() == 0 || !reflect.DeepEqual(flight, session) {
		t.Fatalf("flight window (%d events) differs from the session (%d events)", flight.Len(), session.Len())
	}
}

// TestFlightWindowBounds: a size at or below zero selects the 4096-event
// window, and New refuses a size above MaxFlightWindow by name.
func TestFlightWindowBounds(t *testing.T) {
	for _, size := range []int{0, -5} {
		rt := New(WithWorkers(1), WithFlightRecorder(size))
		for i := range 5000 {
			rt.emit(rt.workers[0], profile.Event{Kind: profile.KindBegin, Task: uint64(i + 1), Arg: -1})
		}
		tr, err := rt.DumpFlight()
		rt.Shutdown()
		if err != nil || len(tr.PerWorker[0]) != 4096 {
			t.Errorf("WithFlightRecorder(%d) keeps %d events (%v), want 4096", size, len(tr.PerWorker[0]), err)
		}
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "MaxFlightWindow") {
			t.Errorf("New with a window above MaxFlightWindow panicked with %v, want a named refusal", r)
		}
	}()
	New(WithFlightRecorder(MaxFlightWindow + 1))
}

// TestFlightEnvelopeAsksTheRuntimesCell: the live envelope is granted for the
// fork disciplines the window recorded, not for the theorems' whatever ran. A
// parent-first fib reads budget 0, the cell DESIGN.md's table marks "no
// bound"; the same fib future-first reads P·T∞², since the thief is the
// uniformly random one the theorems assume. /metrics and MetricsMap export
// that reading.
func TestFlightEnvelopeAsksTheRuntimesCell(t *testing.T) {
	for _, tc := range []struct {
		disc    Discipline
		granted bool
	}{
		{FutureFirst, true},
		{ParentFirst, false},
	} {
		rt := New(WithWorkers(4), WithDiscipline(tc.disc), WithFlightRecorder(1<<14))
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
		if env.Span == 0 || len(env.Recon.Incomplete) != 0 || env.DeviationBound != want {
			t.Errorf("%v: reading %v, want a whole window and budget %d", tc.disc, env, want)
		}
		if got := rt.MetricsMap()["flight"].(map[string]any)["envelope"]; got != want {
			t.Errorf("%v: MetricsMap flight envelope = %v, want %d", tc.disc, got, want)
		}
		rt.Shutdown()
	}
}

// TestFlightEnvelopeAgreesWithJobVerdict: on a 4-worker runtime, a fib job's
// flight reading and the profile report of the same window read one run: the
// window's reading and the job's are one value — same reconstruction counts,
// class, span, deviations and verdict — and the pooled report grants the same
// budget. Every reading is judged under the disciplines the trace recorded:
// P·T∞² > 0 under future-first, nothing under parent-first.
func TestFlightEnvelopeAgreesWithJobVerdict(t *testing.T) {
	for _, disc := range []Discipline{FutureFirst, ParentFirst} {
		t.Run(disc.String(), func(t *testing.T) {
			rt := New(WithWorkers(4), WithDiscipline(disc), WithFlightRecorder(1<<14))
			defer rt.Shutdown()
			j, err := Submit(rt, func(w *W) int { return teleFib(rt, w, 12) })
			if err != nil {
				t.Fatal(err)
			}
			if got := j.Wait(); got != 144 {
				t.Fatalf("fib(12) = %d", got)
			}
			env, err := rt.FlightEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := rt.FlightReport(profile.Options{Trials: 1, NoMatrix: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Jobs) != 1 || rep.Jobs[0].Job != j.ID() {
				t.Fatalf("report has %d job verdicts, want job %d's alone", len(rep.Jobs), j.ID())
			}
			job := rep.Jobs[0].Reading
			budget := 4 * job.Span * job.Span
			if disc == ParentFirst {
				budget = 0
			}
			if job.DeviationBound != budget || rep.DeviationBound != budget || len(env.Recon.Incomplete) != 0 {
				t.Fatalf("job budget %d, pooled budget %d, window gaps %d; want both budgets %d on a whole window",
					job.DeviationBound, rep.DeviationBound, len(env.Recon.Incomplete), budget)
			}
			if !reflect.DeepEqual(env, job) {
				t.Fatalf("flight reading %+v, want %+v (the job's reading under %v)", env, job, disc)
			}
		})
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
