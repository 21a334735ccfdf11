package runtime

import (
	"errors"
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
	j, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 12) })
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == 0 {
		t.Fatal("job ID must be nonzero (0 is job-less work)")
	}
	if got := j.Wait(); got != 144 {
		t.Fatalf("job result = %d, want 144", got)
	}
	if !j.Done() {
		t.Fatal("Done after Wait must be true")
	}
	if j.Latency() <= 0 {
		t.Fatalf("completed job must have positive latency, got %v", j.Latency())
	}
	st := j.Stats()
	if st.ID != j.ID() {
		t.Fatalf("Stats.ID = %d, want %d", st.ID, j.ID())
	}
	// fib(12) spawns one future per composite call; every executed task of
	// the computation — including the root — must be credited to the job.
	if st.TasksRun < 10 {
		t.Fatalf("job TasksRun = %d, want the whole computation", st.TasksRun)
	}
	if st.Latency != j.Latency() {
		t.Fatalf("Stats.Latency = %v, Latency() = %v", st.Latency, j.Latency())
	}
	if st.QueueWait <= 0 || st.QueueWait > st.Latency {
		t.Fatalf("queue wait %v must be within (0, latency %v]", st.QueueWait, st.Latency)
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
// ErrSaturated and SubmitWait queues until a slot frees.
func TestSubmitSaturationRejects(t *testing.T) {
	rt := New(WithWorkers(2), WithMaxInFlight(1))
	defer rt.Shutdown()
	if got := rt.MaxInFlight(); got != 1 {
		t.Fatalf("MaxInFlight = %d, want 1", got)
	}
	gate := make(chan struct{})
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
	// The in-flight job's stats stay readable through its handle.
	if s := j1.Stats(); s.ID != j1.ID() || s.Latency != 0 {
		t.Fatalf("in-flight Stats = %+v, want ID %d and no latency yet", s, j1.ID())
	}

	// SubmitWait queues: it must block now and succeed once j1 finishes.
	admitted := make(chan int, 1)
	go func() {
		j3, err := SubmitWait(rt, func(*W) int { return 3 })
		if err != nil {
			t.Error(err)
			admitted <- -1
			return
		}
		admitted <- j3.Wait()
	}()
	select {
	case v := <-admitted:
		t.Fatalf("SubmitWait admitted (%d) while saturated", v)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if got := j1.Wait(); got != 1 {
		t.Fatalf("j1 = %d", got)
	}
	if got := <-admitted; got != 3 {
		t.Fatalf("queued job = %d, want 3", got)
	}
}

func TestSubmitOnClosedRuntime(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	if _, err := Submit(rt, func(*W) int { return 1 }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed runtime: %v, want ErrClosed", err)
	}
	if _, err := SubmitWait(rt, func(*W) int { return 1 }); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait on closed runtime: %v, want ErrClosed", err)
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

// TestShutdownReleasesQueuedSubmitWait: a SubmitWait blocked on admission
// must observe ErrClosed when the runtime shuts down, not wait forever for
// a slot that will never free.
func TestShutdownReleasesQueuedSubmitWait(t *testing.T) {
	rt := New(WithWorkers(1), WithMaxInFlight(1))
	gate := make(chan struct{})
	running := make(chan struct{})
	j0, err := Submit(rt, func(*W) int { close(running); <-gate; return 1 })
	if err != nil {
		t.Fatal(err)
	}
	<-running
	res := make(chan error, 1)
	go func() {
		_, err := SubmitWait(rt, func(*W) int { return 2 })
		res <- err
	}()
	select {
	case err := <-res:
		t.Fatalf("SubmitWait returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	if err := <-res; !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait during shutdown: %v, want ErrClosed", err)
	}
	close(gate)
	if v, err := j0.WaitErr(); err != nil || v != 1 {
		t.Fatalf("j0 = %d, %v", v, err)
	}
	<-done
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
				case 1:
					j, err := Submit(rt, func(w *W) int { return jobFib(rt, w, 11) })
					if err != nil {
						// Admission may shed under burst; that is correct
						// behavior, not a failure.
						if !errors.Is(err, ErrSaturated) {
							t.Error(err)
							return
						}
						continue
					}
					if got := j.Wait(); got != 89 {
						t.Errorf("job fib(11) = %d", got)
						return
					}
				default:
					j, err := SubmitWait(rt, func(w *W) int { return jobFib(rt, w, 9) })
					if err != nil {
						t.Error(err)
						return
					}
					if got := j.Wait(); got != 34 {
						t.Errorf("job fib(9) = %d", got)
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
	subs := profile.SplitJobs(tr)
	if len(subs) != 2 {
		t.Fatalf("SplitJobs: %d partitions, want 2", len(subs))
	}
	// Each partition must reconstruct cleanly on its own (no cross-job
	// references) and describe exactly one root + two children.
	seen := map[uint64]bool{}
	for id, sub := range subs {
		rec, err := profile.Reconstruct(sub)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if len(rec.Incomplete) != 0 {
			t.Fatalf("job %d: trace gaps %v — events leaked across jobs", id, rec.Incomplete)
		}
		if rec.Tasks != 4 { // external context + root + two children
			t.Fatalf("job %d: %d tasks, want 4", id, rec.Tasks)
		}
		for task := range rec.TaskThread {
			if task == 0 {
				continue
			}
			if seen[task] {
				t.Fatalf("task %d appears in two job partitions", task)
			}
			seen[task] = true
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
	for _, jid := range rec.TaskJob {
		byJob[jid]++
	}
	if byJob[j1.ID()] != 3 || byJob[j2.ID()] != 3 {
		t.Fatalf("TaskJob partition = %v, want 3 tasks per job", byJob)
	}
}

// TestPerJobStatsSeparation: two gated jobs running strictly one after the
// other must account their tasks to their own counters only.
func TestPerJobStatsSeparation(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
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
	s1, s2 := j1.Stats(), j2.Stats()
	if s1.TasksRun <= s2.TasksRun {
		t.Fatalf("fib(12) job ran %d tasks, fib(6) job %d — bigger job must run more",
			s1.TasksRun, s2.TasksRun)
	}
	total := rt.Stats().TasksRun
	if s1.TasksRun+s2.TasksRun != total {
		t.Fatalf("per-job tasks %d+%d != pool total %d", s1.TasksRun, s2.TasksRun, total)
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
	if sa, sb := jA.Stats().HelpedTasks, jB.Stats().HelpedTasks; sa != 0 || sb != 1 {
		t.Fatalf("JobStats helped: A=%d B=%d, want 0 and 1", sa, sb)
	}
	subs := profile.SplitJobs(tr)
	recA, err := profile.Reconstruct(subs[jA.ID()])
	if err != nil {
		t.Fatal(err)
	}
	recB, err := profile.Reconstruct(subs[jB.ID()])
	if err != nil {
		t.Fatal(err)
	}
	if recA.HelpedTasks != 0 || recA.MeasuredDeviations() != 0 {
		t.Fatalf("job A recon: helped=%d deviations=%d, want 0/0 — contaminated by job B's displacement",
			recA.HelpedTasks, recA.MeasuredDeviations())
	}
	if recB.HelpedTasks != 1 || recB.MeasuredDeviations() != 1 {
		t.Fatalf("job B recon: helped=%d deviations=%d, want 1/1 — its displaced execution went missing",
			recB.HelpedTasks, recB.MeasuredDeviations())
	}
	// A's wait still shows up as a helped-mode touch in A's trace (the N
	// rider summarizes the wait), without counting as A's deviation.
	if recA.HelpedWaits != 1 {
		t.Fatalf("job A helped-mode waits = %d, want 1", recA.HelpedWaits)
	}
}
