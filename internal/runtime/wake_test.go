package runtime

import (
	stdruntime "runtime"
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
