package futurelocality_test

import (
	"errors"
	"strings"
	"testing"

	fl "futurelocality"
	"futurelocality/internal/telemetry"
)

// TestPublicAPIEndToEnd exercises the whole facade the way the README
// advertises it: build, classify, simulate, analyze, check lemmas, trace.
func TestPublicAPIEndToEnd(t *testing.T) {
	b := fl.NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.AccessSeq(1, 2, 3)
	m.Access(4)
	m.Touch(f)
	m.Step()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	c := fl.Classify(g)
	if !c.SingleTouch || !c.LocalTouch {
		t.Fatalf("classification: %v", c)
	}

	seq, err := fl.Sequential(g, fl.FutureFirst, 8, fl.LRU)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Simulate(g, fl.SimConfig{P: 2, CacheLines: 8, Control: fl.RandomControl(3)})
	if err != nil {
		t.Fatal(err)
	}
	cmp := fl.Compare(seq, res)
	if cmp.SeqMisses != 4 {
		t.Fatalf("seq misses = %d, want 4 cold misses", cmp.SeqMisses)
	}
	if fl.Deviations(seq.SeqOrder(), res) != cmp.Deviations {
		t.Fatal("Deviations disagrees with Compare")
	}
	if fl.PrematureTouches(g, res) != 0 {
		t.Fatal("structured graph cannot have premature touches")
	}

	rep, err := fl.Analyze(g, fl.AnalyzeOptions{P: 4, CacheLines: 8, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WithinBound() {
		t.Fatal("tiny graph must be within bound")
	}

	vs, err := fl.CheckLemma4(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("lemma violations: %v", vs)
	}

	var dot, csv strings.Builder
	if err := fl.WriteDOT(&dot, g, "api"); err != nil {
		t.Fatal(err)
	}
	if err := fl.WriteTraceCSV(&csv, g, res); err != nil {
		t.Fatal(err)
	}
	if err := fl.WriteTraceDOT(&dot, g, res, seq.SeqOrder(), "api"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if g := fl.ForkJoinTree(3, 2, false); !fl.Classify(g).SingleTouch {
		t.Fatal("ForkJoinTree")
	}
	if g := fl.Fib(8, 3); !fl.Classify(g).SingleTouch {
		t.Fatal("Fib")
	}
	if g := fl.Pipeline(2, 3, 2, false); !fl.Classify(g).LocalTouch {
		t.Fatal("Pipeline")
	}
	if g := fl.RandomStructured(1, fl.RandomConfig{MaxNodes: 100}); !fl.Classify(g).SingleTouch {
		t.Fatal("RandomStructured")
	}
}

func TestPublicCombinators(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(4))
	defer rt.Shutdown()
	got := fl.Run(rt, func(w *fl.W) int {
		xs := make([]int, 100)
		for i := range xs {
			xs[i] = i
		}
		sq := fl.MapPar(rt, w, xs, 8, func(_ *fl.W, x int) int { return x * x })
		total := fl.ReducePar(rt, w, sq, 8, 0, func(a, b int) int { return a + b })
		parts := fl.JoinN(rt, w,
			func(*fl.W) int { return total },
			func(*fl.W) int { return 1 },
		)
		return parts[0] + parts[1]
	})
	want := 1
	for i := 0; i < 100; i++ {
		want += i * i
	}
	if got != want {
		t.Fatalf("combinators = %d, want %d", got, want)
	}
	var hits [64]bool
	fl.Run(rt, func(w *fl.W) struct{} {
		fl.ForEachPar(rt, w, 64, 4, func(_ *fl.W, i int) { hits[i] = true })
		return struct{}{}
	})
	for i, h := range hits {
		if !h {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestPublicStructureHelpers(t *testing.T) {
	g := fl.ForkJoinTree(3, 2, false)
	if !fl.IsForkJoin(g) {
		t.Fatal("fork-join tree must classify as fork-join")
	}
	p := fl.CriticalPath(g)
	if int64(len(p)) != g.Span() {
		t.Fatalf("critical path %d != span %d", len(p), g.Span())
	}
}

// TestPublicProfiler exercises the live-profiler facade end to end:
// profile a run on the real runtime, reconstruct the DAG it performed,
// classify it, and read the predicted-vs-measured report.
func TestPublicProfiler(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(2))
	defer rt.Shutdown()

	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	fl.Run(rt, func(w *fl.W) int {
		f := fl.Spawn(rt, w, func(*fl.W) int { return 21 })
		g := fl.Spawn(rt, w, func(*fl.W) int { return 21 })
		return f.Touch(w) + g.Touch(w)
	})
	tr := rt.StopProfile()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("empty trace from a profiled run")
	}

	recon, err := fl.ReconstructProfile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c := fl.Classify(recon.Graph); !c.SingleTouch {
		t.Fatalf("spawn/touch run must reconstruct single-touch, got %v", c)
	}

	rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeviationBound == 0 || !rep.WithinBound() {
		t.Fatalf("expected a satisfied P·T∞² envelope, got bound=%d measured=%d",
			rep.DeviationBound, rep.MeasuredDeviations)
	}
	for _, want := range []string{"class:", "measured:", "envelope:", "sim prediction:"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestPublicDisciplineEndToEnd is the acceptance path of the unified
// spawn-discipline API: a profiled fib run under each discipline
// reconstructs, classifies, and reports measured deviations, and the
// recorded per-spawn discipline matches what was requested.
func TestPublicDisciplineEndToEnd(t *testing.T) {
	var fib func(rt *fl.Runtime, w *fl.W, n int) int
	fib = func(rt *fl.Runtime, w *fl.W, n int) int {
		if n < 2 {
			return n
		}
		f := fl.Spawn(rt, w, func(w *fl.W) int { return fib(rt, w, n-1) })
		y := fib(rt, w, n-2)
		return f.Touch(w) + y
	}

	for _, d := range []fl.Discipline{fl.FutureFirst, fl.ParentFirst} {
		rt := fl.NewRuntime(fl.WithWorkers(2), fl.WithDiscipline(d))
		if rt.Discipline() != d {
			t.Fatalf("Discipline() = %v, want %v", rt.Discipline(), d)
		}
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		if got := fl.Run(rt, func(w *fl.W) int { return fib(rt, w, 10) }); got != 55 {
			t.Fatalf("%v: fib(10) = %d, want 55", d, got)
		}
		tr := rt.StopProfile()
		rt.Shutdown()

		recon, err := fl.ReconstructProfile(tr)
		if err != nil {
			t.Fatal(err)
		}
		// Every spawn except Run's root submission (always help-first) must
		// carry the requested discipline.
		checked := 0
		for id, got := range recon.TaskDiscipline {
			if id == 1 { // Run's root task
				if got != fl.ParentFirst {
					t.Fatalf("root spawn recorded %v, want parent-first", got)
				}
				continue
			}
			if got != d {
				t.Fatalf("task %d recorded %v, want %v", id, got, d)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: no spawns recorded", d)
		}
		switch d {
		case fl.FutureFirst:
			if recon.FutureFirstSpawns != int64(checked) || recon.ParentFirstSpawns != 1 {
				t.Fatalf("spawn counts: ff=%d pf=%d, want ff=%d pf=1",
					recon.FutureFirstSpawns, recon.ParentFirstSpawns, checked)
			}
		case fl.ParentFirst:
			if recon.ParentFirstSpawns != int64(checked)+1 || recon.FutureFirstSpawns != 0 {
				t.Fatalf("spawn counts: ff=%d pf=%d, want ff=0 pf=%d",
					recon.FutureFirstSpawns, recon.ParentFirstSpawns, checked+1)
			}
		}

		// Full report: classify, measure deviations against the envelope,
		// replay through the simulator.
		rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !fl.Classify(rep.Recon.Graph).SingleTouch {
			t.Fatalf("%v: fib must reconstruct single-touch", d)
		}
		if rep.DeviationBound == 0 || !rep.WithinBound() {
			t.Fatalf("%v: bound=%d measured=%d", d, rep.DeviationBound, rep.MeasuredDeviations)
		}
		if !strings.Contains(rep.String(), "spawn disciplines:") {
			t.Fatalf("report missing spawn-discipline line:\n%s", rep)
		}
	}
}

// TestPublicSpawnWithAndErrors exercises the per-call discipline override
// and the error/cancellation surface through the facade.
func TestPublicSpawnWithAndErrors(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(2))
	got := fl.Run(rt, func(w *fl.W) int {
		f := fl.SpawnWith(rt, w, fl.FutureFirst, func(*fl.W) int { return 40 })
		g := fl.SpawnWith(rt, w, fl.ParentFirst, func(*fl.W) int { return 2 })
		return f.Touch(w) + g.Touch(w)
	})
	if got != 42 {
		t.Fatalf("SpawnWith = %d", got)
	}

	if _, err := fl.RunErr(rt, func(*fl.W) int { panic("bang") }); err == nil {
		t.Fatal("RunErr swallowed a task panic")
	} else {
		var pe *fl.PanicError
		if !errors.As(err, &pe) || pe.Value != "bang" {
			t.Fatalf("RunErr = %v, want PanicError{bang}", err)
		}
	}

	rt.Shutdown()
	if _, err := fl.RunErr(rt, func(*fl.W) int { return 0 }); !errors.Is(err, fl.ErrClosed) {
		t.Fatalf("RunErr on closed runtime = %v, want ErrClosed", err)
	}
	f := fl.Spawn(rt, nil, func(*fl.W) int { return 1 })
	if _, err := f.TouchErr(nil); !errors.Is(err, fl.ErrClosed) {
		t.Fatalf("TouchErr on closed runtime = %v, want ErrClosed", err)
	}
}

func TestPublicRuntime(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(4))
	defer rt.Shutdown()

	got := fl.Run(rt, func(w *fl.W) int {
		a, b := fl.Join2(rt, w,
			func(w *fl.W) int { return 20 },
			func(w *fl.W) int { return 22 },
		)
		return a + b
	})
	if got != 42 {
		t.Fatalf("Join2 = %d", got)
	}

	f := fl.Spawn(rt, nil, func(*fl.W) string { return "hi" })
	if f.Touch(nil) != "hi" {
		t.Fatal("Spawn/Touch")
	}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, fl.ErrDoubleTouch) {
			t.Fatalf("want ErrDoubleTouch, got %v", r)
		}
	}()
	f.Touch(nil)
}

// TestPublicJobServer is the acceptance path of the job-server layer: two
// concurrent jobs of different shapes share one pool, each keeps its own
// identity, stats and latency, and AnalyzeProfile reports one deviation
// verdict per job — each checked against its own envelope, with distinct
// spans — instead of one blurred pooled verdict.
func TestPublicJobServer(t *testing.T) {
	var fib func(rt *fl.Runtime, w *fl.W, n int) int
	fib = func(rt *fl.Runtime, w *fl.W, n int) int {
		if n < 2 {
			return n
		}
		f := fl.Spawn(rt, w, func(w *fl.W) int { return fib(rt, w, n-1) })
		y := fib(rt, w, n-2)
		return f.Touch(w) + y
	}

	rt := fl.NewRuntime(fl.WithWorkers(2), fl.WithMaxInFlight(8))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	j1, err := fl.Submit(rt, func(w *fl.W) int { return fib(rt, w, 12) })
	if err != nil {
		t.Fatal(err)
	}
	j2, err := fl.Submit(rt, func(w *fl.W) int {
		st := fl.Produce(rt, w, 16, func(_ *fl.W, i int) int { return i })
		acc := 0
		for i := 0; i < 16; i++ {
			acc += st.Get(w, i)
		}
		return acc
	})
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() == j2.ID() {
		t.Fatal("jobs must have distinct IDs")
	}
	if got := j1.Wait(); got != 144 {
		t.Fatalf("job1 = %d, want 144", got)
	}
	if got := j2.Wait(); got != 120 {
		t.Fatalf("job2 = %d, want 120", got)
	}
	if j1.Latency() <= 0 || j2.Latency() <= 0 {
		t.Fatal("completed jobs must capture latency")
	}
	tr := rt.StopProfile()

	rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("per-job verdicts = %d, want 2", len(rep.Jobs))
	}
	v1, v2 := rep.Jobs[0], rep.Jobs[1]
	if v1.Job != j1.ID() || v2.Job != j2.ID() {
		t.Fatalf("verdict jobs = %d, %d, want %d, %d", v1.Job, v2.Job, j1.ID(), j2.ID())
	}
	// Distinct verdicts: the two computations have different shapes, so the
	// per-job split must surface different spans (and therefore different
	// envelopes) — a pooled report could not.
	if v1.Span == v2.Span {
		t.Fatalf("fib and pipeline jobs reconstructed the same span %d — split failed", v1.Span)
	}
	for _, v := range rep.Jobs {
		if v.DeviationBound == 0 {
			t.Fatalf("job %d: expected its own P·T∞² envelope, class %v", v.Job, v.Class)
		}
		if !v.WithinBound() {
			t.Fatalf("job %d: measured %d exceeds its own envelope %d",
				v.Job, v.MeasuredDeviations, v.DeviationBound)
		}
	}
	if !strings.Contains(rep.String(), "per-job verdicts") {
		t.Fatalf("report missing per-job section:\n%s", rep)
	}
}

// TestPublicPool drives the sharded pool exactly as the README's scale-out
// quickstart does: explicit topology, keyed and unkeyed submits, the
// overflow exchange, merged metrics, rolling shutdown.
func TestPublicPool(t *testing.T) {
	topo, err := fl.SyntheticTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	p := fl.NewPool(
		fl.WithPoolTopology(topo),
		fl.WithPoolWorkers(4),
		fl.WithPoolMaxInFlight(8),
		fl.WithShardRuntimeOptions(fl.WithSeed(3)),
	)
	defer p.Shutdown()
	if p.Shards() != 2 || p.Workers() != 4 || p.MaxInFlight() != 8 {
		t.Fatalf("pool shape: shards=%d workers=%d cap=%d", p.Shards(), p.Workers(), p.MaxInFlight())
	}

	// Unkeyed placement is least-loaded: while a gated job holds one shard,
	// the next submit must land on the other. The handles name their
	// executing shards.
	gate := make(chan struct{})
	held, err := fl.PoolSubmit(p, func(*fl.W) int { <-gate; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		j, err := fl.PoolSubmit(p, func(w *fl.W) int {
			// Interior spawns go through the executing worker's own runtime:
			// whole jobs shard, interior tasks never do.
			f := fl.Spawn(w.Runtime(), w, func(*fl.W) int { return i })
			return f.Touch(w) + 1
		})
		if err != nil {
			t.Fatal(err)
		}
		if j.Shard() == held.Shard() {
			t.Fatalf("job %d placed on shard %d, which holds a job while the other is idle", i, j.Shard())
		}
		if v := j.Wait(); v != i+1 {
			t.Fatalf("job %d = %d, want %d", i, v, i+1)
		}
	}
	close(gate)
	held.Wait()

	// Keyed stickiness.
	var shards []int
	for i := 0; i < 3; i++ {
		j, err := fl.PoolSubmitKeyed(p, 42, func(*fl.W) int { return i })
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		shards = append(shards, j.Shard())
	}
	if shards[0] != shards[1] || shards[1] != shards[2] {
		t.Fatalf("key 42 wandered across shards %v", shards)
	}

	// Batch entry point and the merged metrics page.
	fns := make([]func(*fl.W) int, 3)
	for i := range fns {
		fns[i] = func(*fl.W) int { return i }
	}
	batch, err := fl.PoolSubmitAll(p, fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		batch[i].Wait()
	}
	var sb strings.Builder
	if err := p.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"futurelocality_pool_shards 2",
		`futurelocality_pool_jobs_total{outcome="offered"}`,
		`futurelocality_jobs_total{shard="1",outcome="submitted"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("pool metrics page missing %q", want)
		}
	}
	if p.Shed() != 0 {
		t.Fatalf("uncontended pool shed %d jobs", p.Shed())
	}
}

// TestPublicPoolWait exercises PoolSubmitWait's backpressure through the
// facade: fill the pool, queue one, release, observe completion.
func TestPublicPoolWait(t *testing.T) {
	topo, err := fl.SyntheticTopology("2x1")
	if err != nil {
		t.Fatal(err)
	}
	p := fl.NewPool(fl.WithPoolTopology(topo), fl.WithPoolWorkers(2), fl.WithPoolMaxInFlight(2))
	defer p.Shutdown()
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := fl.PoolSubmit(p, func(*fl.W) int { <-release; return 0 }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fl.PoolSubmit(p, func(*fl.W) int { return 0 }); !errors.Is(err, fl.ErrSaturated) {
		t.Fatalf("full pool Submit err = %v, want ErrSaturated", err)
	}
	done := make(chan int, 1)
	go func() {
		j, err := fl.PoolSubmitWait(p, func(*fl.W) int { return 9 })
		if err != nil {
			t.Error(err)
			done <- -1
			return
		}
		done <- j.Wait()
	}()
	close(release)
	if v := <-done; v != 9 {
		t.Fatalf("queued job = %d, want 9", v)
	}
}

// TestFacadeCounterColumns: the facade re-exports every telemetry column.
// The table lists the facade's C… constants in column order, so a column
// added to internal/telemetry without its facade twin changes NumCounters
// and fails here.
func TestFacadeCounterColumns(t *testing.T) {
	facade := []fl.TelemetryCounter{
		fl.CTasksRun, fl.CStealAttempts,
		fl.CStealsIntraDomain, fl.CStealsCrossDomain,
		fl.CInlineTouches, fl.CHelpedTasks, fl.CBlockedTouches,
		fl.CSpawnsFutureFirst, fl.CSpawnsParentFirst,
		fl.CParks, fl.CWakeups, fl.CPollFinds,
		fl.CJobsSubmitted, fl.CJobsCompleted, fl.CJobsShed,
	}
	if len(facade) != int(telemetry.NumCounters) {
		t.Fatalf("facade re-exports %d counter columns, internal/telemetry has %d", len(facade), telemetry.NumCounters)
	}
	for i, c := range facade {
		if c != telemetry.Counter(i) {
			t.Errorf("facade column %d is %s, internal column %d is %s", i, c.Name(), i, telemetry.Counter(i).Name())
		}
	}
}
