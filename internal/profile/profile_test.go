package profile_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
)

func fib(rt *runtime.Runtime, w *runtime.W, n int) int {
	if n < 2 {
		return n
	}
	if n < 10 {
		a, b := 0, 1
		for i := 2; i <= n; i++ {
			a, b = b, a+b
		}
		return b
	}
	f := runtime.Spawn(rt, w, func(w *runtime.W) int { return fib(rt, w, n-1) })
	y := fib(rt, w, n-2)
	return f.Touch(w) + y
}

// TestFibRoundTrip profiles a deterministic fork-join workload and checks
// the reconstructed DAG classifies as the structured single-touch (and
// local-touch) computation the Spawn/Touch pattern is by construction.
func TestFibRoundTrip(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	got := runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 18) })
	if got != 2584 {
		t.Fatalf("fib(18) = %d, want 2584", got)
	}
	tr := rt.StopProfile()
	if tr == nil {
		t.Fatal("StopProfile returned nil with an active session")
	}
	rec, err := profile.Reconstruct(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 {
		t.Fatalf("complete session reported gaps: %v", rec.Incomplete)
	}
	// fib(18) with sequential cutoff at 10 spawns fib(17..10) recursions:
	// tasks = futures + producer-less root + external context.
	if len(rec.Tasks) < 10 {
		t.Fatalf("suspiciously few tasks: %d", len(rec.Tasks))
	}
	c := dag.Classify(rec.Graph)
	if !c.Structured || !c.SingleTouch || !c.LocalTouch {
		t.Fatalf("fib should reconstruct as structured single-touch local-touch, got %v (violations %v)",
			c, c.Violations)
	}
	if rec.SuperFinal {
		t.Fatal("every future is touched; no super final node expected")
	}
}

// TestStreamRoundTrip profiles a Produce/Get pipeline and checks the
// reconstruction models it as the paper's local-touch computation: one
// future thread computing many futures, each touched once by its parent.
func TestStreamRoundTrip(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	const items = 50
	sum := runtime.Run(rt, func(w *runtime.W) int {
		st := runtime.Produce(rt, w, items, func(_ *runtime.W, i int) int { return i * i })
		acc := 0
		for i := 0; i < items; i++ {
			acc += st.Get(w, i)
		}
		return acc
	})
	want := 0
	for i := 0; i < items; i++ {
		want += i * i
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	rec, err := profile.Reconstruct(rt.StopProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 {
		t.Fatalf("complete session reported gaps: %v", rec.Incomplete)
	}
	c := dag.Classify(rec.Graph)
	if !c.Structured || !c.LocalTouch {
		t.Fatalf("stream should reconstruct as structured local-touch, got %v (violations %v)",
			c, c.Violations)
	}
	// items touches of the producer thread + 1 touch of the root future.
	if got := rec.Graph.NumTouches(); got != items+1 {
		t.Fatalf("touches = %d, want %d", got, items+1)
	}
}

// TestSideEffectFuturesSuperFinal checks that futures nobody touches are
// closed by a super final node and classified per Definition 13.
func TestSideEffectFuturesSuperFinal(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var done sync.WaitGroup
	done.Add(3)
	runtime.Run(rt, func(w *runtime.W) int {
		for i := 0; i < 3; i++ {
			runtime.Spawn(rt, w, func(w *runtime.W) int { done.Done(); return 0 })
		}
		return 0
	})
	done.Wait() // side effects complete before the trace is cut
	rec, err := profile.Reconstruct(rt.StopProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SuperFinal {
		t.Fatal("untouched futures must force a super final node")
	}
	c := dag.Classify(rec.Graph)
	if !c.SingleTouchSuperFinal {
		t.Fatalf("want single-touch-super-final, got %v (violations %v)", c, c.Violations)
	}
}

// TestAnalyzeReport runs the full pipeline and checks the report carries
// all four acceptance ingredients: class, measured deviations, envelope,
// and sim prediction.
func TestAnalyzeReport(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithDiscipline(runtime.FutureFirst))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 20) })
	rep, err := rt.ProfileReport(profile.Options{Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P != 4 {
		t.Fatalf("P = %d, want runtime worker count 4", rep.P)
	}
	if rep.DeviationBound != 4*rep.Span*rep.Span {
		t.Fatalf("bound = %d, want P·T∞² = %d", rep.DeviationBound, 4*rep.Span*rep.Span)
	}
	if !rep.WithinBound() {
		t.Fatalf("measured deviations %d exceed the Theorem 8 envelope %d",
			rep.MaxDeviations, rep.DeviationBound)
	}
	if rep.Sim == nil || len(rep.Sim.Deviations) != 4 {
		t.Fatal("sim replay missing or wrong trial count")
	}
	out := rep.String()
	for _, want := range []string{"class:", "measured:", "envelope:", "sim prediction:", "single-touch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRandomProgramsRoundTrip is the property test: random spawn/touch
// programs in which every future is touched exactly once by its spawning
// task are structured single-touch local-touch computations by construction
// (the Section 4 guarantee for the Spawn/Touch discipline), so their
// reconstructed DAGs must classify exactly that way, for every seed and
// regardless of how the scheduler interleaved the actual run.
func TestRandomProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rt := runtime.New(runtime.WithWorkers(3), runtime.WithSeed(seed+1))
		// Stolen tasks run body on other workers, so the shared generator is
		// drawn from under a lock.
		var rngMu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		var body func(w *runtime.W, depth int) int
		body = func(w *runtime.W, depth int) int {
			if depth == 0 {
				return 1
			}
			rngMu.Lock()
			k := 1 + rng.Intn(3)
			depths := make([]int, k)
			for i := range depths {
				depths[i] = depth - 1 - rng.Intn(depth)
			}
			order := rng.Perm(k)
			rngMu.Unlock()
			futs := make([]*runtime.Future[int], k)
			for i, d := range depths {
				futs[i] = runtime.Spawn(rt, w, func(w *runtime.W) int { return body(w, d) })
			}
			// Touch in a random order — legal for futures, impossible in
			// strict fork-join (Figure 5(a)).
			acc := 0
			for _, i := range order {
				acc += futs[i].Touch(w)
			}
			return acc
		}
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		runtime.Run(rt, func(w *runtime.W) int { return body(w, 4) })
		rec, err := profile.Reconstruct(rt.StopProfile())
		rt.Shutdown()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.Incomplete) != 0 {
			t.Fatalf("seed %d: gaps %v", seed, rec.Incomplete)
		}
		c := dag.Classify(rec.Graph)
		if !c.Structured || !c.SingleTouch || !c.LocalTouch {
			t.Fatalf("seed %d: want structured+single-touch+local-touch, got %v (violations %v)",
				seed, c, c.Violations)
		}
	}
}

// TestStartStopLifecycle checks the session state machine.
func TestStartStopLifecycle(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(1))
	defer rt.Shutdown()
	if tr := rt.StopProfile(); tr != nil {
		t.Fatal("StopProfile without a session should return nil")
	}
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	if err := rt.StartProfile(); err != runtime.ErrProfileActive {
		t.Fatalf("second StartProfile: got %v, want ErrProfileActive", err)
	}
	if tr := rt.StopProfile(); tr == nil {
		t.Fatal("StopProfile should return the trace")
	}
	if _, err := rt.ProfileReport(profile.Options{}); err != runtime.ErrNoProfile {
		t.Fatalf("ProfileReport without session: got %v, want ErrNoProfile", err)
	}
}

// TestTruncatedTraceTolerated starts profiling in the middle of a workload:
// the reconstructor must degrade to Incomplete notes, not fail, and still
// produce a valid DAG.
func TestTruncatedTraceTolerated(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	// Pre-profile warm-up so mid-run state exists, then profile a second
	// workload; futures of the first workload are invisible to the trace.
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 15) })
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 15) })
	_, err := profile.Reconstruct(rt.StopProfile())
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmptyTrace reconstructs a session during which nothing ran.
func TestEmptyTrace(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	rec, err := profile.Reconstruct(rt.StopProfile())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Graph.Len() != 1 {
		t.Fatalf("empty trace should reconstruct to the bare main thread, got %d nodes", rec.Graph.Len())
	}
}

// TestRecorderChunkRollover pushes a single log past several chunk
// boundaries and checks nothing is lost or reordered.
func TestRecorderChunkRollover(t *testing.T) {
	r := profile.NewRecorder(1, 0)
	const n = 10000 // > 2 chunks
	for i := 0; i < n; i++ {
		r.Record(0, profile.Event{Kind: profile.KindSpawn, Task: 0, Other: uint64(i + 1)})
	}
	tr := r.Collect()
	if len(tr.PerWorker[0]) != n {
		t.Fatalf("collected %d events, want %d", len(tr.PerWorker[0]), n)
	}
	for i, ev := range tr.PerWorker[0] {
		if ev.Other != uint64(i+1) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

// TestStealAttributionSyntheticTrace feeds the reconstructor a hand-built
// trace with three steals: the steal count and the deviation total must come
// out of the KindSteal events.
func TestStealAttributionSyntheticTrace(t *testing.T) {
	r, err := profile.WindowReading(stealTrace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recon.Steals != 3 {
		t.Fatalf("Steals = %d, want 3", r.Recon.Steals)
	}
	if got := r.MaxDeviations; got != 3 {
		t.Fatalf("measured deviations = %d, want 3 (steals only)", got)
	}
}

// stealTrace is a hand-built trace in which worker 1 steals all three
// children of worker 0's root.
func stealTrace() *profile.Trace {
	r := profile.NewRecorder(2, 0)
	// Worker 0 spawns three tasks from the external driver's root (task 1).
	r.RecordExternal(profile.Event{Kind: profile.KindSpawn, Other: 1, Arg: -1})
	r.Record(0, profile.Event{Kind: profile.KindBegin, Task: 1, Arg: -1})
	for id := uint64(2); id <= 4; id++ {
		r.Record(0, profile.Event{Kind: profile.KindSpawn, Task: 1, Other: id, Arg: -1,
			Disc: dag.ParentFirst})
	}
	// Worker 1 steals tasks 2, 3 and 4.
	for id := uint64(2); id <= 4; id++ {
		r.Record(1, profile.Event{Kind: profile.KindBegin, Task: id, Arg: -1})
		r.Record(1, profile.Event{Kind: profile.KindEnd, Task: id, Arg: -1})
		r.Record(1, profile.Event{Kind: profile.KindSteal, Task: id, Arg: -1})
	}
	// The root touches all three (already done → ready mode), then ends.
	for id := uint64(2); id <= 4; id++ {
		r.Record(0, profile.Event{Kind: profile.KindTouch, Mode: profile.ModeReady,
			Task: 1, Other: id, Arg: -1})
	}
	r.Record(0, profile.Event{Kind: profile.KindEnd, Task: 1, Arg: -1})
	return r.Collect()
}

// TestReportPrintsMatrixAndAttribution: the rendered report must contain
// the matrix — one random-single column, a row per fork discipline — and
// attribute the traced steals in the measured line, with no steal column or
// line beyond the one thief.
func TestReportPrintsMatrixAndAttribution(t *testing.T) {
	rep, err := profile.Analyze(stealTrace(), profile.Options{P: 2, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"(fork × steal) deviation matrix",
		"random-single\n",
		"future-first", "parent-first",
		"(steals=3 helped=0 blocked=0)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"hierarchical", "steal attribution", "steal locality"} {
		if strings.Contains(out, gone) {
			t.Fatalf("report still prints %q:\n%s", gone, out)
		}
	}
	// The envelope star belongs to exactly one cell.
	stars := 0
	for _, cell := range rep.Matrix {
		if cell.DeviationBound > 0 {
			stars++
		}
	}
	if stars != 1 {
		t.Fatalf("%d matrix cells carry the envelope, want exactly 1", stars)
	}
}
