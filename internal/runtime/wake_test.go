package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"futurelocality/internal/telemetry"
)

// waitFor spins, yielding, until cond holds, and fails the test if it does
// not within ten seconds: a miscounted sleeper or a liveness reference that
// is never returned would otherwise show as a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		stdruntime.Gosched()
	}
}

// TestWakeupsMatchParks pins one signal per sleeper. Each job is submitted
// only once both workers are asleep: the submit signals one, and the job's
// first spawn the other, which is then on its way out of park while the
// rest of the job's spawns follow. A signaller counts the sleeper out as it
// signals it, so those spawns signal nobody and a job costs at most one
// signal per worker; a sleeper that stayed counted until it ran was
// signalled again by each of them, 17 signals a job. The first task holds whoever steals it
// until the spawns are done, so the woken worker cannot go back to sleep in
// between and be woken, rightly, once more.
func TestWakeupsMatchParks(t *testing.T) {
	const workers, jobs, spawns = 2, 200, 16
	rt := newRT(t, workers)
	var spawned atomic.Bool
	first := func(*W) int {
		for !spawned.Load() {
			stdruntime.Gosched()
		}
		return 1
	}
	one := func(*W) int { return 1 }
	body := func(w *W) int {
		spawned.Store(false)
		var fs [spawns]*Future[int]
		fs[0] = SpawnWith(rt, w, ParentFirst, first)
		for i := 1; i < spawns; i++ {
			fs[i] = SpawnWith(rt, w, ParentFirst, one)
		}
		spawned.Store(true)
		sum := 0
		for _, f := range fs {
			sum += f.Touch(w)
		}
		return sum
	}
	var perJob [8]int
	for i := 0; i < jobs; i++ {
		asleep := func() bool { return rt.parked.Load() == workers }
		waitFor(t, "both workers sleep", asleep)
		before := rt.TelemetrySnapshot().Total(telemetry.CWakeups)
		j, err := Submit(rt, body)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Wait(); got != spawns {
			t.Fatalf("job %d = %d, want %d", i, got, spawns)
		}
		waitFor(t, "both workers sleep", asleep)
		perJob[min(rt.TelemetrySnapshot().Total(telemetry.CWakeups)-before, 7)]++
	}
	snap := rt.TelemetrySnapshot()
	wakes, parks := snap.Total(telemetry.CWakeups), snap.Total(telemetry.CParks)
	t.Logf("%d jobs: %d wake-ups, %d parks %v", jobs, wakes, parks, perJob)
	if wakes > workers*jobs {
		t.Fatalf("%d wake-ups for %d jobs on %d workers: more than one signal per sleeper per job", wakes, jobs, workers)
	}
}

// TestStaleTokenParkedWorkerSleepsAgain: a token left in a worker's slot —
// by a completion whose toucher re-checked and never slept — ends the
// worker's next sleep in park early. The worker is still on the idle stack
// then, so it sleeps again: no second parked increment, no second park and
// no wakeup, the rule of one signal per sleeper.
//
// The test waits for a committed sleep, read under rt.mu: the worker's slot
// listed on an idle stack of height 1. parked alone does not show one, since
// park's check raises it for a moment before it backs out to run new work.
func TestStaleTokenParkedWorkerSleepsAgain(t *testing.T) {
	rt := newRT(t, 1)
	w := rt.workers[0]
	asleep := func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return len(rt.idle) == 1 && w.slot.listed
	}
	waitFor(t, "the worker sleeps", asleep)
	count := func(c telemetry.Counter) int64 { return rt.TelemetrySnapshot().Total(c) }
	parks, wakes := count(telemetry.CParks), count(telemetry.CWakeups)
	// Run wakes the sleeper once, and its body leaves a token in the
	// worker's own slot.
	if got := Run(rt, func(w *W) int { w.slot.wake(); return 1 }); got != 1 {
		t.Fatalf("Run = %d, want 1", got)
	}
	waitFor(t, "the worker takes the token asleep", func() bool { return asleep() && len(w.slot.ch) == 0 })
	// A worker that took the token for a wakeup would leave park, poll for
	// 50 µs and park once more.
	time.Sleep(20 * time.Millisecond)
	rt.mu.Lock()
	stacked, listed := len(rt.idle), w.slot.listed
	rt.mu.Unlock()
	if n := rt.parked.Load(); n != 1 || stacked != 1 || !listed {
		t.Fatalf("parked = %d, idle stack %d, slot listed %v; want 1, 1, true", n, stacked, listed)
	}
	if p, k := count(telemetry.CParks)-parks, count(telemetry.CWakeups)-wakes; p != 1 || k != 1 {
		t.Fatalf("%d parks and %d wakeups for one Run; want 1 and 1", p, k)
	}
	if got := Run(rt, leafIntFn); got != 1 {
		t.Fatalf("Run after the stale token = %d, want 1", got)
	}
}

// TestStaleTokenExternalWaiter: a token left in a pooled slot ends the sleep
// of the next external waiter that borrows the slot early. The waiter sees
// its future unfinished, sleeps again, and returns the future's own value.
func TestStaleTokenExternalWaiter(t *testing.T) {
	rt := newRT(t, 1)
	held := func(f *Future[int], release chan struct{}) {
		waitUntil(func() bool { return f.waiter.Load() != nil })
		time.Sleep(100 * time.Microsecond)
		close(release)
	}
	for round := 1; round <= 50; round++ {
		// The pool hands the slot out again, most likely to this goroutine.
		s := slots.Get().(*slot)
		s.wake()
		slots.Put(s)
		release := make(chan struct{})
		f := Spawn(rt, nil, func(*W) int { <-release; return round })
		go held(f, release)
		if got := f.Touch(nil); got != round {
			t.Fatalf("round %d: Touch = %d", round, got)
		}
	}
	// A slot known to hold a token.
	s := newSlot()
	s.wake()
	release := make(chan struct{})
	f := Spawn(rt, nil, func(*W) int { <-release; return 1 })
	go held(f, release)
	f.waitDone(s)
	if !f.Done() {
		t.Fatal("waitDone returned on a stale token before the future finished")
	}
}

// TestSlotRelaysDisplacedWaiter: two goroutines wait on one task, as a
// Scope's tracker and the future's own toucher can. The second install
// displaces the first slot, and the second waiter passes a token on as it
// leaves, so both wake. Every other round the two race the completion.
func TestSlotRelaysDisplacedWaiter(t *testing.T) {
	for r := 0; r < 2000; r++ {
		var tk task
		if !tk.claim() {
			t.Fatal("claim of a fresh task failed")
		}
		a, b := newSlot(), newSlot()
		var done sync.WaitGroup
		done.Add(2)
		go func() { defer done.Done(); tk.waitDone(a) }()
		if r%2 == 0 {
			waitUntil(func() bool { return tk.waiter.Load() == a })
		}
		go func() { defer done.Done(); tk.waitDone(b) }()
		if r%2 == 0 {
			waitUntil(func() bool { return tk.waiter.Load() == b })
		}
		tk.complete()
		finished := make(chan struct{})
		go func() { done.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a waiter never woke", r)
		}
	}
}
