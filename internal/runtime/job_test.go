package runtime

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"futurelocality/internal/profile"
)

// jobFib is the job bodies' workload (small enough that stress tests stay
// fast under -race).
func jobFib(rt *Runtime, w *W, n int) int {
	if n < 2 {
		return n
	}
	f := Spawn(rt, w, func(w *W) int { return jobFib(rt, w, n-1) })
	y := jobFib(rt, w, n-2)
	return f.Touch(w) + y
}

func TestSubmitBasic(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	j, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 12) })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == 0 {
		t.Fatal("job ID must be nonzero (0 is job-less work)")
	}
	// The job's own record, read before the consume recycles it.
	waitUntil(j.Done)
	queueWait, latency := time.Duration(j.js.queueWaitNs.Load()), time.Duration(j.js.latencyNs.Load())
	if got := j.Wait(); got != 144 {
		t.Fatalf("job result = %d, want 144", got)
	}
	if !j.Done() {
		t.Fatal("Done after Wait must be true")
	}
	if j.Latency() <= 0 || j.Latency() != latency {
		t.Fatalf("completed job's latency %v, want the job's positive %v", j.Latency(), latency)
	}
	if queueWait <= 0 || queueWait > latency {
		t.Fatalf("queue wait %v must be within (0, latency %v]", queueWait, latency)
	}
	// fib(12) spawns one future per composite call; every executed task of
	// the computation — including the root — carries the job's ID.
	var begun int64
	for _, ev := range rt.StopProfile().Events() {
		if ev.Kind == profile.KindBegin {
			if ev.Job != j.ID() {
				t.Fatalf("task begun with job %d, want %d: %v", ev.Job, j.ID(), ev)
			}
			begun++
		}
	}
	if want := cutFibSpawns(12, 2) + 1; begun != want {
		t.Fatalf("job began %d tasks, want the whole computation's %d", begun, want)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", rt.InFlight())
	}
}

func TestSubmitSecondWaitPanics(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	j, err := Submit(rt, func(*W) int { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Wait(); got != 7 {
		t.Fatalf("got %d", got)
	}
	if _, err := j.WaitErr(); !errors.Is(err, ErrDoubleTouch) {
		t.Fatalf("second consume: %v, want ErrDoubleTouch", err)
	}
}

func TestSubmitPanicSurfacesAsError(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	j, err := Submit(rt, func(*W) int { panic("request exploded") })
	if err != nil {
		t.Fatal(err)
	}
	_, werr := j.WaitErr()
	var pe *PanicError
	if !errors.As(werr, &pe) || pe.Value != "request exploded" {
		t.Fatalf("WaitErr = %v, want PanicError wrapping the original value", werr)
	}
	if j.Latency() <= 0 {
		t.Fatal("a panicked job still completes and captures latency")
	}
}

// TestSubmitSaturationRejects: at WithMaxInFlight, Submit fails fast with
// ErrSaturated, and a finished job's slot admits the next Submit.
func TestSubmitSaturationRejects(t *testing.T) {
	rt := New(WithWorkers(2), WithMaxInFlight(1))
	defer rt.Shutdown()
	if got := rt.MaxInFlight(); got != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", got)
	}
	gate := make(chan struct{})
	defer func() {
		// A failed check must not leave j1 holding the worker, or the
		// deferred Shutdown waits for it forever.
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	j1, err := Submit(rt, func(*W) int { <-gate; return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if rt.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", rt.InFlight())
	}
	if _, err := Submit(rt, func(*W) int { return 2 }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated Submit: %v, want ErrSaturated", err)
	}
	// The in-flight job has no latency yet.
	if lat := j1.Latency(); lat != 0 {
		t.Fatalf("in-flight job's latency = %v, want 0", lat)
	}

	close(gate)
	if got := j1.Wait(); got != 1 {
		t.Fatalf("j1 = %d", got)
	}
	// j1's finish returned its slot, so the next Submit is admitted.
	j3, err := Submit(rt, func(*W) int { return 3 })
	if err != nil {
		t.Fatalf("Submit after j1 finished: %v", err)
	}
	if got := j3.Wait(); got != 3 {
		t.Fatalf("j3 = %d, want 3", got)
	}
}

func TestSubmitOnClosedRuntime(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	if _, err := Submit(rt, func(*W) int { return 1 }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed runtime: %v, want ErrClosed", err)
	}
}

// TestShutdownFailsQueuedJobDeterministic is the regression test for
// shutdown-vs-in-flight-Submit: a job whose root is still queued when
// Shutdown begins must fail its waiter with ErrClosed — never hang on a
// never-completed future. The schedule is pinned: the only worker is held
// inside j0's body, j1 is queued behind it, and the gate opens only after
// the runtime is observably closed, so the worker's next loop iteration
// must take the shutdown drain, not j1.
func TestShutdownFailsQueuedJobDeterministic(t *testing.T) {
	rt := New(WithWorkers(1))
	gate := make(chan struct{})
	running := make(chan struct{})
	j0, err := Submit(rt, func(*W) int { close(running); <-gate; return 1 })
	if err != nil {
		t.Fatal(err)
	}
	<-running
	j1, err := Submit(rt, func(*W) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	for !rt.Closed() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if v, err := j0.WaitErr(); err != nil || v != 1 {
		t.Fatalf("running job must complete normally: %d, %v", v, err)
	}
	if _, err := j1.WaitErr(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job after shutdown: %v, want ErrClosed", err)
	}
	<-done
	if rt.InFlight() != 0 {
		t.Fatalf("InFlight after shutdown = %d, want 0", rt.InFlight())
	}
	if j1.Latency() <= 0 {
		t.Fatal("cancelled job must still capture its latency")
	}
}

// TestConcurrentRunSubmitStress exercises many goroutines driving Run and
// Submit concurrently on one runtime — the multi-tenant regime nothing
// covered before the job-server layer. Run under -race in CI.
func TestConcurrentRunSubmitStress(t *testing.T) {
	rt := New(WithWorkers(4), WithMaxInFlight(32))
	defer rt.Shutdown()
	const goroutines = 8
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					if got := Run(rt, func(w *W) int { return jobFib(rt, w, 10) }); got != 55 {
						t.Errorf("Run fib(10) = %d", got)
						return
					}
				default:
					n, want := 11, 89
					if (g+i)%3 == 2 {
						n, want = 9, 34
					}
					j, err := Submit(rt, func(w *W) int { return jobFib(rt, w, n) })
					if err != nil {
						// Admission may shed under burst; that is correct
						// behavior, not a failure.
						if !errors.Is(err, ErrSaturated) {
							t.Error(err)
							return
						}
						continue
					}
					if got := j.Wait(); got != want {
						t.Errorf("job fib(%d) = %d, want %d", n, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if rt.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", rt.InFlight())
	}
}

// TestShutdownDuringConcurrentSubmitStress races Shutdown against a storm
// of Submit/Run callers: every call must return promptly — a value, or
// ErrClosed/ErrSaturated — and never hang (the regression the job layer's
// shutdown semantics promise). The test's own deadline is the watchdog.
func TestShutdownDuringConcurrentSubmitStress(t *testing.T) {
	for round := 0; round < 3; round++ {
		rt := New(WithWorkers(2))
		var wg sync.WaitGroup
		var started atomic.Int32
		for g := 0; g < 6; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					started.Add(1)
					if g%2 == 0 {
						j, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 8) })
						if err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Error(err)
							}
							return
						}
						if v, err := j.WaitErr(); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Error(err)
							}
							return
						} else if v != 21 {
							t.Errorf("fib(8) = %d", v)
							return
						}
					} else {
						v, err := RunErr(rt, func(w *W) int { return jobFib(rt, w, 8) })
						if err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Error(err)
							}
							return
						}
						if v != 21 {
							t.Errorf("fib(8) = %d", v)
							return
						}
					}
				}
			}()
		}
		for started.Load() < 20 {
			time.Sleep(100 * time.Microsecond)
		}
		rt.Shutdown()
		wg.Wait()
	}
}

// TestJobEventSeparationDeterministic drives two jobs' tasks interleaved by
// hand on a bare runtime (no worker loops) and checks every traced event
// lands in exactly its own job's partition: temporal interleaving must not
// blur Event.Job attribution.
func TestJobEventSeparationDeterministic(t *testing.T) {
	rt := bareRuntime(2)
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	w0, w1 := rt.workers[0], rt.workers[1]

	// Job bodies: spawn two children, touch one, leave the other parked on
	// the executing worker's deque — so each job's computation is only half
	// done when its root returns, forcing the later child executions to
	// interleave across jobs.
	body := func(tag int) func(*W) int {
		return func(w *W) int {
			side := SpawnWith(rt, w, ParentFirst, leafIntFn)
			inline := SpawnWith(rt, w, ParentFirst, leafIntFn)
			_ = side
			return tag + inline.Touch(w)
		}
	}
	j1, err := Submit(rt, body(100))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Submit(rt, body(200))
	if err != nil {
		t.Fatal(err)
	}

	// Hand schedule: w0 runs job 1's root, w1 runs job 2's root (roots sit
	// in submission order on the global queue), then each worker drains the
	// side child its root parked — job1/job2/job1/job2 in time.
	for i, w := range []*W{w0, w1, w0, w1} {
		tk, _ := w.find()
		if tk == nil {
			t.Fatalf("step %d: no task to run", i)
		}
		if !w.execCtx(tk, 0) {
			t.Fatalf("step %d: task already claimed", i)
		}
	}
	if got := j1.Wait(); got != 101 {
		t.Fatalf("job1 = %d, want 101", got)
	}
	if got := j2.Wait(); got != 201 {
		t.Fatalf("job2 = %d, want 201", got)
	}
	tr := rt.StopProfile()

	// Every event must carry a job tag — this schedule has no job-less work.
	for _, ev := range tr.Events() {
		if ev.Job != j1.ID() && ev.Job != j2.ID() {
			t.Fatalf("event %v: job %d, want %d or %d", ev, ev.Job, j1.ID(), j2.ID())
		}
	}
	recs := jobRecons(t, tr)
	if len(recs) != 2 {
		t.Fatalf("per-job reconstructions: %d, want 2", len(recs))
	}
	// Each job must reconstruct cleanly on its own (no cross-job
	// references) and describe exactly one root + two children.
	seen := map[uint64]bool{}
	for id, rec := range recs {
		if len(rec.Incomplete) != 0 {
			t.Fatalf("job %d: trace gaps %v — events leaked across jobs", id, rec.Incomplete)
		}
		if len(rec.Tasks) != 4 { // external context + root + two children
			t.Fatalf("job %d: %d tasks, want 4", id, len(rec.Tasks))
		}
		for _, task := range rec.Tasks {
			if task.ID == 0 {
				continue
			}
			if seen[task.ID] {
				t.Fatalf("task %d appears in two job partitions", task.ID)
			}
			seen[task.ID] = true
		}
	}
	// Full-trace reconstruction agrees on the task→job mapping.
	rec, err := profile.Reconstruct(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("Recon.Jobs = %v, want both jobs", rec.Jobs)
	}
	byJob := map[uint64]int{}
	for _, task := range rec.Tasks {
		if task.Job != 0 {
			byJob[task.Job]++
		}
	}
	if byJob[j1.ID()] != 3 || byJob[j2.ID()] != 3 {
		t.Fatalf("task → job partition = %v, want 3 tasks per job", byJob)
	}
}

// TestPerJobStatsSeparation: two jobs running strictly one after the other
// each begin exactly their own computation's tasks in the trace, and the two
// together are every task the runtime's rows counted.
func TestPerJobStatsSeparation(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	j1, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 12) })
	if err != nil {
		t.Fatal(err)
	}
	if got := j1.Wait(); got != 144 {
		t.Fatalf("j1 = %d", got)
	}
	j2, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 6) })
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Wait(); got != 8 {
		t.Fatalf("j2 = %d", got)
	}
	begun := map[uint64]int64{}
	for _, ev := range rt.StopProfile().Events() {
		if ev.Kind == profile.KindBegin {
			begun[ev.Job]++
		}
	}
	want := map[uint64]int64{j1.ID(): cutFibSpawns(12, 2) + 1, j2.ID(): cutFibSpawns(6, 2) + 1}
	if !maps.Equal(begun, want) {
		t.Fatalf("tasks begun by job %v, want %v", begun, want)
	}
	if total := rt.Stats().TasksRun; begun[j1.ID()]+begun[j2.ID()] != total {
		t.Fatalf("per-job tasks %v != pool total %d", begun, total)
	}
}

// TestHelpAttributedToHelpedTasksJob pins the deviation-attribution rule
// for helping across jobs: when a worker waiting in job A runs one of job
// B's tasks, the displaced execution is B's deviation (B's task left its
// spawn-order path), recorded as a KindHelp event carrying B's job — job
// A's own verdict must not be inflated by it, and job B's sub-trace must
// not lose it.
func TestHelpAttributedToHelpedTasksJob(t *testing.T) {
	rt := bareRuntime(2)
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	w0 := rt.workers[0]

	// passed simulates a future in flight on another worker: spawned
	// job-less, claimed (Created→Running) before anyone can inline it, and
	// completed by hand mid-test the way its executing worker would.
	passed := SpawnWith(rt, nil, ParentFirst, func(*W) int { return 0 })
	if !passed.claim() {
		t.Fatal("could not pre-claim the in-flight future")
	}

	jA, err := Submit(rt, func(w *W) int { return passed.Touch(w) })
	if err != nil {
		t.Fatal(err)
	}
	jB, err := Submit(rt, func(*W) int {
		// The "other worker" finishes passed while B runs — so A's await
		// observes completion right after helping B, deterministically.
		passed.result = 5
		passed.complete()
		return 9
	})
	if err != nil {
		t.Fatal(err)
	}

	// w0 discards the claimed passed, executes A's root; A's touch of
	// passed cannot inline (Running), so the await help loop runs the next
	// global task — B's root — as a help.
	tk, fl := w0.find()
	if tk == nil || fl != 0 {
		t.Fatalf("find: task=%v flags=%v, want job A's root", tk, fl)
	}
	if !w0.execCtx(tk, 0) {
		t.Fatal("exec of job A's root failed")
	}
	if got := jA.Wait(); got != 5 {
		t.Fatalf("job A = %d, want 5", got)
	}
	if got := jB.Wait(); got != 9 {
		t.Fatalf("job B = %d, want 9", got)
	}
	tr := rt.StopProfile()

	var helps []profile.Event
	for _, ev := range tr.Events() {
		if ev.Kind == profile.KindHelp {
			helps = append(helps, ev)
		}
	}
	if len(helps) != 1 {
		t.Fatalf("KindHelp events = %d, want exactly 1 (%v)", len(helps), helps)
	}
	if helps[0].Job != jB.ID() {
		t.Fatalf("help attributed to job %d, want the helped task's job %d", helps[0].Job, jB.ID())
	}
	if helped := rt.Stats().HelpedTasks; helped != 1 {
		t.Fatalf("Stats.HelpedTasks = %d, want the one help", helped)
	}
	recs := jobRecons(t, tr)
	recA, recB := recs[jA.ID()], recs[jB.ID()]
	if recA.HelpedTasks != 0 || (recA.Steals+recA.HelpedTasks+recA.BlockedWaits) != 0 {
		t.Fatalf("job A recon: helped=%d deviations=%d, want 0/0 — contaminated by job B's displacement",
			recA.HelpedTasks, (recA.Steals + recA.HelpedTasks + recA.BlockedWaits))
	}
	if recB.HelpedTasks != 1 || (recB.Steals+recB.HelpedTasks+recB.BlockedWaits) != 1 {
		t.Fatalf("job B recon: helped=%d deviations=%d, want 1/1 — its displaced execution went missing",
			recB.HelpedTasks, (recB.Steals + recB.HelpedTasks + recB.BlockedWaits))
	}
	// A's wait still shows up as a helped-mode touch in A's trace (the N
	// rider summarizes the wait), without counting as A's deviation.
	if recA.HelpedWaits != 1 {
		t.Fatalf("job A helped-mode waits = %d, want 1", recA.HelpedWaits)
	}
}

// TestAbandonedFuturesRecycleRootOnce: a job may abandon futures that run
// after its Wait has returned. Their liveness references keep the root from
// recycling until the last of them retires, and then it recycles exactly
// once: the generation moves by one and the composite is pooled once. Each
// abandoned future takes a token from the test, so on one worker the k-th
// send completes only after the first k−1 have retired. The recycling worker
// stashes the root, and its stash reaches the freelist when the
// workerFreeCap-th root arrives, so the Submit after that many rounds gets
// the last root back.
func TestAbandonedFuturesRecycleRootOnce(t *testing.T) {
	const abandoned = 8
	rt := newRT(t, 1)
	token := make(chan struct{})
	take := func(*W) int { <-token; return 0 }
	var last *jobState
	for round := 0; round < workerFreeCap; round++ {
		j, err := Submit(rt, func(w *W) int {
			for i := 0; i < abandoned; i++ {
				SpawnWith(rt, w, ParentFirst, take)
			}
			return 1
		})
		if err != nil {
			t.Fatal(err)
		}
		js, gen := j.js, j.gen
		if got := j.Wait(); got != 1 {
			t.Fatalf("round %d: Wait = %d, want 1", round, got)
		}
		for k := 1; k <= abandoned; k++ {
			if g := js.gen.Load(); g != gen {
				t.Fatalf("round %d: root recycled with %d of %d abandoned futures still pending", round, abandoned-k+1, abandoned)
			}
			token <- struct{}{}
		}
		waitFor(t, "the root recycles", func() bool { return js.gen.Load() != gen })
		waitFor(t, "the worker parks", func() bool { return rt.parked.Load() == 1 })
		if g := js.gen.Load(); g != gen+1 {
			t.Fatalf("round %d: generation moved %d times, want once", round, g-gen)
		}
		w := rt.workers[0]
		pooled := 0
		for _, r := range w.jobFree {
			if r == js.owner {
				pooled++
			}
		}
		rt.freeMu.Lock()
		for _, r := range rt.free {
			if r == js.owner {
				pooled++
			}
		}
		rt.freeMu.Unlock()
		if pooled != 1 {
			t.Fatalf("round %d: root pooled %d times, want once", round, pooled)
		}
		last = js
	}
	j, err := Submit(rt, func(*W) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	if j.js != last {
		t.Fatal("the Submit after a full stash reached the freelist allocated a new root")
	}
	if got := j.Wait(); got != 2 {
		t.Fatalf("Wait on the recycled root = %d, want 2", got)
	}
}

// TestRootsRecycleOnceAcrossJobs: a worker's pending liveness references are
// those of the job whose task it is running, and it returns them on entering
// and on leaving a task of another job (W.publish). So when concurrent jobs'
// tasks interleave on the same workers — a worker loop going from one job's
// task to the next job's, a helper running another job's task — no job is
// handed another's releases: once every worker has parked, each root the jobs
// used holds no reference and sits pooled exactly once.
func TestRootsRecycleOnceAcrossJobs(t *testing.T) {
	const workers, rounds, jobs, n, cutoff = 4, 50, 16, 14, 4
	fib := cutFib(nil, nil, n, n+1)
	rt := newRT(t, workers)
	roots := map[poolableRoot]bool{}
	handles := make([]Job[int], 0, jobs)
	for r := 0; r < rounds; r++ {
		handles = handles[:0]
		for i := 0; i < jobs; i++ {
			j, err := Submit(rt, func(w *W) int { return cutFib(rt, w, n, cutoff) })
			if err != nil {
				t.Fatal(err)
			}
			roots[j.js.owner] = true
			handles = append(handles, j)
		}
		for i := range handles {
			if got := handles[i].Wait(); got != fib {
				t.Fatalf("round %d: job %d = %d, want %d", r, handles[i].ID(), got, fib)
			}
		}
	}
	// A worker publishes before it parks, so with all of them parked every
	// reference has come back.
	waitFor(t, "the workers park", func() bool { return rt.parked.Load() == workers })
	pooled := map[poolableRoot]int{}
	for _, w := range rt.workers {
		for _, r := range w.jobFree {
			pooled[r]++
		}
	}
	rt.freeMu.Lock()
	for _, r := range rt.free {
		pooled[r]++
	}
	rt.freeMu.Unlock()
	for r := range roots {
		if refs := r.(*jobRoot[int]).js.refs.Load(); refs != 0 || pooled[r] != 1 {
			t.Fatalf("a root of %d holds %d references and is pooled %d times, want 0 and once", len(roots), refs, pooled[r])
		}
	}
}

// TestSubmitWaitBlockedReusesRootGate: a blocked Wait on a recycled root
// sleeps on its own slot, over many tenants of the composites of one worker:
// blocked waits, panicking roots (whose panic value takes the body's place,
// and is gone for the next tenant), roots that panic before anyone waits,
// and a token left behind in a pooled slot by a completion whose waiter
// installed the slot and then saw the job done. That token ends the next
// blocked Wait's sleep early if that Wait borrows the slot, and the Wait must
// sleep again. Every recycled root starts with an empty waiter word, and
// every Wait must return its own tenant's outcome.
func TestSubmitWaitBlockedReusesRootGate(t *testing.T) {
	rt := newRT(t, 1)
	var root atomic.Pointer[task]
	installed := func() {
		waitUntil(func() bool { r := root.Load(); return r != nil && r.waiter.Load() != nil })
	}
	cases := []struct {
		name string
		body func(w *W) int
		// leave installs a slot without blocking on it, as a waiter that
		// re-checks after the install and sees the job done, and returns the
		// slot to the pool with the completion's token in it.
		leave  bool
		panics bool
	}{
		{"blocked", func(*W) int { installed(); return 1 }, false, false},
		{"blocked then panics", func(*W) int { installed(); panic("boom") }, false, true},
		{"panics first", func(*W) int { panic("boom") }, false, true},
		{"token left behind", func(*W) int { return 1 }, true, false},
	}
	for round := 0; round < 200; round++ {
		c := cases[round%len(cases)]
		release := make(chan struct{})
		j, err := Submit(rt, func(w *W) int { <-release; return c.body(w) })
		if err != nil {
			t.Fatal(err)
		}
		if s := j.f.waiter.Load(); s != nil {
			t.Fatalf("round %d (%s): the root starts with a slot installed", round, c.name)
		}
		root.Store(&j.f.task)
		if c.leave {
			s := slots.Get().(*slot)
			j.f.waiter.Store(s)
			close(release)
			// The completion sends the token after it publishes done.
			waitUntil(func() bool { return len(s.ch) == 1 })
			slots.Put(s)
		} else {
			close(release)
		}
		v, err := j.WaitErr()
		root.Store(nil)
		var pe *PanicError
		switch {
		case c.panics && (!errors.As(err, &pe) || pe.Value != "boom"):
			t.Fatalf("round %d (%s): WaitErr = %v, %v; want the root's panic", round, c.name, v, err)
		case !c.panics && (err != nil || v != 1):
			t.Fatalf("round %d (%s): WaitErr = %v, %v; want 1", round, c.name, v, err)
		}
	}
}

// jobRecons reconstructs each job of tr on its own, the way the profile
// report's per-job verdicts do, by job ID.
func jobRecons(t *testing.T, tr *profile.Trace) map[uint64]*profile.Recon {
	t.Helper()
	rep, err := profile.Analyze(tr, profile.Options{Trials: 1, NoMatrix: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := map[uint64]*profile.Recon{}
	for _, jr := range rep.Jobs {
		recs[jr.Job] = jr.Recon
	}
	return recs
}
