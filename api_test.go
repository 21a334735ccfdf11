package futurelocality_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	fl "futurelocality"
)

// TestPublicAPIEndToEnd exercises the model half of the facade the way the
// README advertises it: build, classify, analyze, check lemmas.
func TestPublicAPIEndToEnd(t *testing.T) {
	b := fl.NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	for _, blk := range []fl.BlockID{1, 2, 3} {
		f.Access(blk)
	}
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
}

func TestPublicWorkloads(t *testing.T) {
	g := fl.Pipeline(2, 3, 2, false)
	if !fl.Classify(g).LocalTouch {
		t.Fatal("Pipeline")
	}
	if vs, err := fl.CheckLemma11(g); err != nil || len(vs) != 0 {
		t.Fatalf("CheckLemma11(Pipeline) = %v, %v", vs, err)
	}
}

func TestPublicCombinators(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(4))
	defer rt.Shutdown()
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

// TestPublicProfiler exercises the live-profiler facade end to end:
// profile a run on the real runtime, reconstruct the DAG it performed,
// classify it, and read the predicted-vs-measured report.
func TestPublicProfiler(t *testing.T) {
	rt := fl.NewRuntime(fl.WithWorkers(2), fl.WithDiscipline(fl.FutureFirst))
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

	rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c := fl.Classify(rep.Recon.Graph); !c.SingleTouch {
		t.Fatalf("spawn/touch run must reconstruct single-touch, got %v", c)
	}
	if rep.DeviationBound == 0 || !rep.WithinBound() {
		t.Fatalf("expected a satisfied P·T∞² envelope, got bound=%d measured=%d",
			rep.DeviationBound, rep.MaxDeviations)
	}
	for _, want := range []string{"class:", "measured:", "envelope:", "sim prediction:"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestPublicDisciplineEndToEnd is the acceptance path of the unified
// spawn-discipline API: a profiled fib run under each discipline
// reconstructs, classifies, and reports measured deviations, the recorded
// per-spawn discipline matches what was requested, and the envelope is
// granted only where every fork was future-first.
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
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		if got := fl.Run(rt, func(w *fl.W) int { return fib(rt, w, 10) }); got != 55 {
			t.Fatalf("%v: fib(10) = %d, want 55", d, got)
		}
		tr := rt.StopProfile()
		rt.Shutdown()

		// Full report: classify, measure deviations against the envelope,
		// replay through the simulator.
		rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		recon := rep.Recon
		// Every spawn except Run's root submission (always help-first) must
		// carry the requested discipline.
		checked := 0
		for _, task := range recon.Tasks {
			if !task.Spawned {
				continue
			}
			id, got := task.ID, task.Discipline
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

		if !fl.Classify(recon.Graph).SingleTouch {
			t.Fatalf("%v: fib must reconstruct single-touch", d)
		}
		if granted := rep.DeviationBound > 0; granted != (d == fl.FutureFirst) || !rep.WithinBound() {
			t.Fatalf("%v: bound=%d measured=%d", d, rep.DeviationBound, rep.MaxDeviations)
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

	if _, err := fl.RunErr(rt, func(*fl.W) int { panic("bang") }); err == nil || !strings.Contains(err.Error(), "bang") {
		t.Fatalf("RunErr = %v, want the task's panic as an error", err)
	}

	rt.Shutdown()
	if _, err := fl.RunErr(rt, func(*fl.W) int { return 0 }); err == nil {
		t.Fatal("RunErr on a closed runtime returned no error")
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
}

// TestPublicJobServer is the acceptance path of the job-server layer: two
// concurrent jobs of different shapes share one pool, each keeps its own
// identity, and AnalyzeProfile reports one deviation verdict per job — each
// judged on its own DAG, with distinct spans — instead of one blurred pooled
// verdict: the future-first fib is granted its own envelope, the pipeline,
// whose producer is a parent-first fork, none.
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

	rt := fl.NewRuntime(fl.WithWorkers(2), fl.WithMaxInFlight(8), fl.WithDiscipline(fl.FutureFirst))
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
	if v1.DeviationBound == 0 || !v1.WithinBound() {
		t.Fatalf("fib job: bound %d, measured %d; want its own satisfied P·T∞² envelope, class %v",
			v1.DeviationBound, v1.MaxDeviations, v1.Class)
	}
	if v2.DeviationBound != 0 || !strings.Contains(v2.String(), "parent-first forks") {
		t.Fatalf("pipeline job: bound %d (%s); want none, for its parent-first producer", v2.DeviationBound, v2)
	}
	if !strings.Contains(rep.String(), "per-job verdicts") {
		t.Fatalf("report missing per-job section:\n%s", rep)
	}
}

// TestPublicPool drives the sharded pool exactly as the README's scale-out
// quickstart does: explicit topology, single and batched submits, merged
// metrics, rolling shutdown.
func TestPublicPool(t *testing.T) {
	topo, err := fl.SyntheticTopology("2x2")
	if err != nil {
		t.Fatal(err)
	}
	p := fl.NewPool(
		fl.WithPoolTopology(topo),
		fl.WithPoolWorkers(4),
		fl.WithPoolMaxInFlight(8),
		fl.WithShardRuntimeOptions(fl.WithDiscipline(fl.FutureFirst)),
	)
	defer p.Shutdown()
	if p.Shards() != 2 || p.Workers() != 4 || p.MaxInFlight() != 8 {
		t.Fatalf("pool shape: shards=%d workers=%d cap=%d", p.Shards(), p.Workers(), p.MaxInFlight())
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
		if v := j.Wait(); v != i+1 {
			t.Fatalf("job %d = %d, want %d", i, v, i+1)
		}
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

// TestPublicPoolWait exercises the pool's admission through the facade: fill
// the pool, see the next submit shed, release, and see one admitted again.
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
	close(release)
	for p.InFlight() > 0 {
		runtime.Gosched()
	}
	j, err := fl.PoolSubmit(p, func(*fl.W) int { return 9 })
	if err != nil {
		t.Fatal(err)
	}
	if v := j.Wait(); v != 9 {
		t.Fatalf("job after release = %d, want 9", v)
	}
}
