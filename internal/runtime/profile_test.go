package runtime

import (
	"sync"
	"testing"
	"time"

	"futurelocality/internal/profile"
)

func profFib(rt *Runtime, w *W, n int) int {
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
	f := Spawn(rt, w, func(w *W) int { return profFib(rt, w, n-1) })
	y := profFib(rt, w, n-2)
	return f.Touch(w) + y
}

// TestConcurrentStartStopWhileRunning hammers StartProfile/StopProfile from
// several goroutines while workers churn through futures and streams. Run
// under -race this checks the lock-free recording path: session swaps must
// never race with in-flight event stores, and every collected trace must
// reconstruct to a valid DAG even though it is arbitrarily truncated.
func TestConcurrentStartStopWhileRunning(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Workload goroutines keep the workers busy with every event source:
	// spawns, touches in all modes, steals, and stream yields.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				Run(rt, func(w *W) int { return profFib(rt, w, 16) })
				Run(rt, func(w *W) int {
					st := Produce(rt, w, 32, func(_ *W, i int) int { return i })
					acc := 0
					for i := 0; i < 32; i++ {
						acc += st.Get(w, i)
					}
					return acc
				})
			}
		}()
	}

	// Profiler togglers start, stop and reconstruct concurrently.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rt.StartProfile(); err != nil {
					continue // the other toggler won the CAS
				}
				time.Sleep(time.Millisecond)
				tr := rt.StopProfile()
				if tr == nil {
					t.Error("session started by us was stopped by nobody else")
					return
				}
				rec, err := profile.Reconstruct(tr)
				if err != nil {
					t.Errorf("truncated trace failed to reconstruct: %v", err)
					return
				}
				if err := rec.Graph.Validate(); err != nil {
					t.Errorf("reconstructed DAG invalid: %v", err)
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestProfileCountersMatchRuntimeStats cross-checks the trace against the
// runtime's own atomic counters on a quiescent run: every steal and every
// touch mode the Stats counted must appear in the trace.
func TestProfileCountersMatchRuntimeStats(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	Run(rt, func(w *W) int { return profFib(rt, w, 20) })
	tr := rt.StopProfile()
	st := rt.Stats()

	var steals, inline, blocked int64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case profile.KindSteal:
			steals++
		case profile.KindTouch:
			switch ev.Mode {
			case profile.ModeInline:
				inline++
			case profile.ModeBlocked:
				blocked++
			}
		}
	}
	// Stats counts deque removals; the trace counts steals that led to
	// execution (a thief can lose the run race to an inlining toucher), so
	// trace ≤ Stats with equality in the common case.
	if steals > st.Steals {
		t.Errorf("trace has %d steals, Stats says %d (trace must not exceed)", steals, st.Steals)
	}
	if inline != st.InlineTouches {
		t.Errorf("trace has %d inline touches, Stats says %d", inline, st.InlineTouches)
	}
	if blocked != st.BlockedTouches {
		t.Errorf("trace has %d blocked touches, Stats says %d", blocked, st.BlockedTouches)
	}
}

// TestTaskIDBlocksUniqueAndReconstruct: workers draw task IDs from their
// own reserved blocks while external spawns take single IDs from the same
// counter. Every ID must still be unique, and a multi-worker trace whose IDs
// are no longer dense in spawn order must reconstruct completely. A barrier
// pins the four forks to four distinct workers, and each spawns more than
// one block's worth, so every worker reserves at least twice.
func TestTaskIDBlocksUniqueAndReconstruct(t *testing.T) {
	const (
		workers   = 4
		perWorker = taskIDBlock + 44
		externals = 2 * 40
	)
	rt := New(WithWorkers(workers))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var ext sync.WaitGroup
	for g := 0; g < 2; g++ {
		ext.Add(1)
		go func() {
			defer ext.Done()
			for i := 0; i < externals/2; i++ {
				Run(rt, leafIntFn)
			}
		}()
	}
	var arrived sync.WaitGroup
	arrived.Add(workers)
	got := Run(rt, func(w *W) int {
		var forks [workers]*Future[int]
		for i := range forks {
			forks[i] = Spawn(rt, w, func(w *W) int {
				// Blocks its worker until all four forks run at once.
				arrived.Done()
				arrived.Wait()
				leaves := make([]*Future[int], perWorker)
				for j := range leaves {
					leaves[j] = Spawn(rt, w, leafIntFn)
				}
				sum := 0
				for j := len(leaves) - 1; j >= 0; j-- {
					sum += leaves[j].Touch(w)
				}
				return sum
			})
		}
		total := 0
		for _, f := range forks {
			total += f.Touch(w)
		}
		return total
	})
	ext.Wait()
	tr := rt.StopProfile()
	if got != workers*perWorker {
		t.Fatalf("result = %d, want %d", got, workers*perWorker)
	}

	seen := map[uint64]bool{}
	for _, ev := range tr.Events() {
		if ev.Kind != profile.KindSpawn {
			continue
		}
		if ev.Other == 0 || seen[ev.Other] {
			t.Fatalf("task ID %d is zero or was handed out twice", ev.Other)
		}
		seen[ev.Other] = true
	}
	if want := 1 + workers + workers*perWorker + externals; len(seen) != want {
		t.Fatalf("trace has %d spawns, want %d", len(seen), want)
	}
	for i, log := range tr.PerWorker {
		n := 0
		for _, ev := range log {
			if ev.Kind == profile.KindSpawn {
				n++
			}
		}
		if n < perWorker {
			t.Errorf("worker %d recorded %d spawns; the barrier should have given it a fork's %d", i, n, perWorker)
		}
	}

	rec, err := profile.Reconstruct(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) > 0 {
		t.Fatalf("reconstruction incomplete: %v", rec.Incomplete)
	}
	if err := rec.Graph.Validate(); err != nil {
		t.Fatalf("reconstructed DAG invalid: %v", err)
	}
	if rec.Tasks != len(seen)+1 { // + the external context
		t.Fatalf("reconstructed %d tasks, want %d", rec.Tasks, len(seen)+1)
	}
}
