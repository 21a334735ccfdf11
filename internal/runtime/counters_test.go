package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"futurelocality/internal/telemetry"
)

// Tests for the owner-local counters (W.pend, W.publish): tasks run, inline
// touches and spawns are plain fields of the worker, so what the telemetry
// rows show is only as good as the publication rule. These tests pin the two
// halves of it — exact wherever an observer can synchronise, at most
// counterLag behind per running worker otherwise. CI runs the tests named
// CounterFlush under -race -count=10 at GOMAXPROCS=4.

// cutFib is help-first fib that forks down to n < cutoff: every call at or
// above the cutoff spawns one future and touches it.
func cutFib(rt *Runtime, w *W, n, cutoff int) int {
	if n < cutoff {
		a, b := 0, 1
		for i := 0; i < n; i++ {
			a, b = b, a+b
		}
		return a
	}
	f := Spawn(rt, w, func(w *W) int { return cutFib(rt, w, n-1, cutoff) })
	y := cutFib(rt, w, n-2, cutoff)
	return f.Touch(w) + y
}

// cutFibSpawns is the number of futures cutFib(n, cutoff) spawns.
func cutFibSpawns(n, cutoff int) int64 {
	if n < cutoff {
		return 0
	}
	return 1 + cutFibSpawns(n-1, cutoff) + cutFibSpawns(n-2, cutoff)
}

// checkFibWindow compares the counters one cutFib computation moved against
// its closed form: spawns futures plus the root, each run once. Every future
// is touched by its creator, inline unless a thief or a helper ran it first.
func checkFibWindow(t *testing.T, round, workers int, spawns int64, d telemetry.Snapshot, s0, s1 Stats) {
	t.Helper()
	if got := s1.TasksRun - s0.TasksRun; got != spawns+1 {
		t.Fatalf("round %d: TasksRun moved by %d, want %d", round, got, spawns+1)
	}
	if pf, ff := d.Total(telemetry.CSpawnsParentFirst), d.Total(telemetry.CSpawnsFutureFirst); pf != spawns+1 || ff != 0 {
		t.Fatalf("round %d: spawns moved by %d parent-first, %d future-first; want %d, 0", round, pf, ff, spawns+1)
	}
	inline := s1.InlineTouches - s0.InlineTouches
	displaced := (s1.Steals - s0.Steals) + (s1.HelpedTasks - s0.HelpedTasks)
	if inline > spawns || inline < spawns-displaced || workers == 1 && inline != spawns {
		t.Fatalf("round %d: InlineTouches moved by %d, want %d less at most %d displaced tasks", round, inline, spawns, displaced)
	}
}

// TestCounterFlushExactAfterWait: once Run or Job.Wait has returned, Stats
// and the telemetry rows account for every task of the computation — on any
// number of workers, however the tasks were stolen, helped or blocked on.
func TestCounterFlushExactAfterWait(t *testing.T) {
	const n, cutoff, rounds = 14, 4, 200
	spawns := cutFibSpawns(n, cutoff)
	want := cutFib(nil, nil, n, n+1)
	for _, workers := range []int{1, 2, 4} {
		rt := New(WithWorkers(workers), WithSeed(int64(workers)))
		for r := 0; r < rounds; r++ {
			s0, t0 := rt.Stats(), rt.TelemetrySnapshot()
			var got int
			var js JobStats
			if r%2 == 0 {
				got = Run(rt, func(w *W) int { return cutFib(rt, w, n, cutoff) })
			} else {
				j, err := Submit(rt, func(w *W) int { return cutFib(rt, w, n, cutoff) })
				if err != nil {
					t.Fatal(err)
				}
				got, js = j.Wait(), j.Stats()
			}
			s1, t1 := rt.Stats(), rt.TelemetrySnapshot()
			if got != want {
				t.Fatalf("workers %d round %d: fib = %d, want %d", workers, r, got, want)
			}
			checkFibWindow(t, r, workers, spawns, t1.Sub(t0), s0, s1)
			if r%2 == 1 && js.TasksRun != spawns+1 {
				t.Fatalf("workers %d round %d: job counted %d tasks, want %d", workers, r, js.TasksRun, spawns+1)
			}
		}
		rt.Shutdown()
		// Shutdown waited for the workers, so their fields may be read.
		for _, w := range rt.workers {
			if w.pend != (pending{}) {
				t.Fatalf("workers %d: worker %d exited with unpublished counters %+v", workers, w.id, w.pend)
			}
		}
	}
}

// TestCounterFlushBlockedWorker: a worker that blocks at a touch publishes
// first, so the row of a worker that is going nowhere is exact.
func TestCounterFlushBlockedWorker(t *testing.T) {
	rt := bareRuntime(1)
	w0 := rt.workers[0]
	passed := SpawnWith(rt, nil, ParentFirst, sevenFn)
	if !passed.claim() {
		t.Fatal("could not pre-claim the future")
	}
	root := SpawnWith(rt, nil, ParentFirst, func(w *W) int {
		sum := 0
		for i := 0; i < 3; i++ {
			sum += SpawnWith(rt, w, ParentFirst, sevenFn).Touch(w)
		}
		return sum + passed.Touch(w) // running elsewhere, nothing to help with
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !w0.execCtx(&root.task, 0) {
			t.Error("could not run the root")
		}
	}()
	waitUntil(func() bool { return passed.gate.Load() != nil })
	row := func(c telemetry.Counter) int64 { return w0.tele.Load(c) }
	if ran, inl, sp, bl := row(telemetry.CTasksRun), row(telemetry.CInlineTouches), row(telemetry.CSpawnsParentFirst), row(telemetry.CBlockedTouches); ran != 3 || inl != 3 || sp != 3 || bl != 1 {
		t.Errorf("blocked worker's row: ran %d inline %d spawned %d blocked %d; want 3 3 3 1", ran, inl, sp, bl)
	}
	passed.result = 7
	passed.complete()
	<-done
	if got := root.Touch(nil); got != 28 {
		t.Fatalf("root = %d, want 28", got)
	}
	if ran := row(telemetry.CTasksRun); ran != 4 {
		t.Errorf("TasksRun after the root = %d, want 4", ran)
	}
}

// TestCounterFlushParkedWorkers: with every worker asleep nothing is pending,
// and everything spawned has been run — under either fork discipline.
func TestCounterFlushParkedWorkers(t *testing.T) {
	const workers, n, cutoff = 2, 16, 4
	for _, d := range []Discipline{ParentFirst, FutureFirst} {
		rt := New(WithWorkers(workers), WithDiscipline(d))
		for r := 0; r < 20; r++ {
			Run(rt, func(w *W) int { return cutFib(rt, w, n, cutoff) })
			waitUntil(func() bool { return rt.parked.Load() == workers })
			snap := rt.TelemetrySnapshot()
			spawned := snap.Total(telemetry.CSpawnsParentFirst) + snap.Total(telemetry.CSpawnsFutureFirst)
			want := int64(r+1) * (cutFibSpawns(n, cutoff) + 1)
			if ran := snap.Total(telemetry.CTasksRun); ran != spawned || ran != want {
				t.Fatalf("%v round %d, all workers parked: %d tasks run, %d spawned, want both %d", d, r, ran, spawned, want)
			}
		}
		rt.Shutdown()
	}
}

// TestCounterFlushLagBound: while one long computation runs, a reader that
// synchronises on nothing sees the published counters rise monotonically,
// never ahead of what has happened and never more than counterLag tasks (or
// taskIDBlock spawns) per worker behind it. The computation alternates a
// burst of spawns with a burst of touches, so that each of the two bounds is
// the only thing publishing for a while: in fork-join code, where a worker
// spawns about as often as it runs, either would cover for the other.
func TestCounterFlushLagBound(t *testing.T) {
	const workers, bursts, burst = 2, 40, 8 * counterLag
	// A task between its last statement and countRun, or a spawn between the
	// test's own count and adopt's, is one more per worker the rows may miss.
	const slack = (counterLag + 1) * workers
	rt := newRT(t, workers)
	var spawned, finished atomic.Int64
	leaf := func(*W) int { finished.Add(1); return 1 }
	root := func(w *W) int {
		sum := 0
		futs := make([]*Future[int], burst)
		for b := 0; b < bursts; b++ {
			for i := range futs {
				spawned.Add(1)
				futs[i] = Spawn(rt, w, leaf)
			}
			for i := len(futs) - 1; i >= 0; i-- {
				sum += futs[i].Touch(w)
			}
		}
		return sum
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := Run(rt, root); got != bursts*burst {
			t.Errorf("root = %d, want %d", got, bursts*burst)
		}
	}()

	// The root is one more task and one more spawn than the test counts.
	var lastRan, lastSpawned, reads int64
	var bad string
	for running := true; running && bad == ""; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		minRan, minSpawned := finished.Load(), spawned.Load()
		snap := rt.TelemetrySnapshot()
		maxRan, maxSpawned := finished.Load()+1, spawned.Load()+1
		ran, sp := snap.Total(telemetry.CTasksRun), snap.Total(telemetry.CSpawnsParentFirst)
		switch {
		case ran < lastRan || sp < lastSpawned:
			bad = fmt.Sprintf("counters went backwards: ran %d → %d, spawned %d → %d", lastRan, ran, lastSpawned, sp)
		case ran > maxRan || sp > maxSpawned:
			bad = fmt.Sprintf("counters ahead of the run: ran %d of %d, spawned %d of %d", ran, maxRan, sp, maxSpawned)
		case ran < minRan-slack || sp < minSpawned-slack:
			bad = fmt.Sprintf("counters more than %d behind: ran %d of %d, spawned %d of %d", slack, ran, minRan, sp, minSpawned)
		}
		lastRan, lastSpawned = ran, sp
	}
	<-done
	if bad != "" {
		t.Fatal(bad)
	}
	if ran, want := rt.Stats().TasksRun, int64(bursts*burst+1); ran != want {
		t.Fatalf("TasksRun after Run = %d, want %d", ran, want)
	}
	t.Logf("%d concurrent reads over %d tasks", reads, lastRan)
}
