//go:build !race

// Allocation-budget regression tests: AllocsPerRun pins the hot-path
// per-operation allocation count so the zero-allocation spawn work cannot
// silently erode. Excluded under -race (the race runtime adds its own
// allocations); CI runs the suite both ways, so these still gate merges.
package runtime

import (
	stdruntime "runtime"
	"testing"
	"unsafe"
)

// leafFn is a package-level function value: spawning it allocates nothing
// beyond the Future itself, so the budgets below measure the runtime, not
// the caller's closure.
func leafFn(*W) int { return 1 }

// inWorker runs body on a single worker and returns its result. One worker
// makes the measurement deterministic: a ParentFirst spawn is pushed to our
// own deque and popped right back by the touch, with no thief to race.
func inWorker(t *testing.T, body func(w *W) float64) float64 {
	t.Helper()
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	return Run(rt, body)
}

// TestSpawnTouchAllocBudget pins the tentpole number: a SpawnWith+Touch
// pair costs at most 2 allocations under BOTH disciplines (measured: 1 —
// the Future, which embeds its task, status word, and result; the
// budget leaves one slot of headroom for a capturing closure).
func TestSpawnTouchAllocBudget(t *testing.T) {
	for _, d := range []Discipline{ParentFirst, FutureFirst} {
		d := d
		got := inWorker(t, func(w *W) float64 {
			rt := w.Runtime()
			return testing.AllocsPerRun(500, func() {
				f := SpawnWith(rt, w, d, leafFn)
				f.Touch(w)
			})
		})
		if got > 2 {
			t.Errorf("SpawnWith(%v)+Touch = %.1f allocs/op, budget 2", d, got)
		}
	}
}

// TestJoin2AllocBudget: one Join2 costs at most 2 allocations (measured: 1,
// the pushed branch's Future).
func TestJoin2AllocBudget(t *testing.T) {
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		return testing.AllocsPerRun(500, func() {
			Join2(rt, w, leafFn, leafFn)
		})
	})
	if got > 2 {
		t.Errorf("Join2 = %.1f allocs/op, budget 2", got)
	}
}

// TestScopeAllocBudget: a Scope with one side-effect task costs at most 5
// allocations (the Sync, the task's Future, the Go wrapper closure, and
// the pending-slice growth).
func TestScopeAllocBudget(t *testing.T) {
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		return testing.AllocsPerRun(500, func() {
			Scope(rt, w, func(s *Sync) {
				s.Go(func(*W) {})
			})
		})
	})
	if got > 5 {
		t.Errorf("Scope{1×Go} = %.1f allocs/op, budget 5", got)
	}
}

// TestProduceDrainAllocBudget: producing and draining a whole stream costs
// at most 3 allocations regardless of length (measured: 2 — the Stream,
// which embeds the producer task, and the cell array; cells carry atomic
// completion words, not channels).
func TestProduceDrainAllocBudget(t *testing.T) {
	const n = 64
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		return testing.AllocsPerRun(200, func() {
			st := Produce(rt, w, n, func(_ *W, i int) int { return i })
			for i := 0; i < n; i++ {
				st.Get(w, i)
			}
		})
	})
	if got > 3 {
		t.Errorf("Produce+drain(%d) = %.1f allocs/op, budget 3", n, got)
	}
}

// TestSpawnTouchAllocBudgetFlight re-pins the tentpole number with the full
// observability stack engaged: the always-on telemetry counters (live in
// every budget above already) plus the flight recorder. Both write into
// storage preallocated at New, so the budget is IDENTICAL to the base
// spawn+touch budget — telemetry-on adds 0 allocs/op on the hot path.
func TestSpawnTouchAllocBudgetFlight(t *testing.T) {
	rt := New(WithWorkers(1), WithFlightRecorder(4096))
	defer rt.Shutdown()
	for _, d := range []Discipline{ParentFirst, FutureFirst} {
		d := d
		got := Run(rt, func(w *W) float64 {
			return testing.AllocsPerRun(500, func() {
				f := SpawnWith(rt, w, d, leafFn)
				f.Touch(w)
			})
		})
		if got > 2 {
			t.Errorf("flight-on SpawnWith(%v)+Touch = %.1f allocs/op, budget 2", d, got)
		}
	}
}

// TestSubmitWaitAllocBudget pins the serve-path tentpole number: in steady
// state (freelist warm) one Submit+Wait pair allocates NOTHING — the root
// future and job state recycle through the shard freelist, admission is a
// CAS on the striped quota, and the returned handle is a value. The waiter
// spins on Done before consuming so the measurement never materializes the
// blocking gate (an external waiter that actually blocks pays one channel —
// that is the toucher's cost, not the submit path's).
func TestSubmitWaitAllocBudget(t *testing.T) {
	for _, capped := range []bool{false, true} {
		opts := []Option{WithWorkers(1)}
		name := "uncapped"
		if capped {
			opts = append(opts, WithMaxInFlight(8))
			name = "capped"
		}
		rt := New(opts...)
		// Warm the freelist: the first round trips pool the root composite.
		for i := 0; i < 8; i++ {
			j, err := Submit(rt, leafFn)
			if err != nil {
				t.Fatal(err)
			}
			j.Wait()
		}
		got := testing.AllocsPerRun(500, func() {
			j, err := Submit(rt, leafFn)
			if err != nil {
				panic(err)
			}
			for !j.Done() {
				stdruntime.Gosched()
			}
			if j.Wait() != 1 {
				panic("bad job result")
			}
		})
		rt.Shutdown()
		if got > 1 {
			t.Errorf("%s steady-state Submit+Wait = %.1f allocs/op, budget 1 (target 0)", name, got)
		}
		t.Logf("%s steady-state Submit+Wait = %.2f allocs/op", name, got)
	}
}

// TestSubmitAllAllocBudget: a warm 64-job SubmitAll+drain into a retained
// handle slice stays allocation-free per job — the whole batch's budget is
// a small constant (headroom for the global queue's occasional growth), not
// a per-job cost.
func TestSubmitAllAllocBudget(t *testing.T) {
	const k = 64
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	fns := make([]func(*W) int, k)
	for i := range fns {
		fns[i] = leafFn
	}
	dst := make([]Job[int], 0, k)
	warm := func() {
		dst = dst[:0]
		var err error
		dst, err = SubmitAll(rt, fns, dst)
		if err != nil {
			panic(err)
		}
		for i := range dst {
			for !dst[i].Done() {
				stdruntime.Gosched()
			}
			if dst[i].Wait() != 1 {
				panic("bad job result")
			}
		}
	}
	for i := 0; i < 8; i++ {
		warm() // fill the shard freelist and size the global queue
	}
	got := testing.AllocsPerRun(200, warm)
	if got > 4 {
		t.Errorf("steady-state SubmitAll(%d)+drain = %.1f allocs/batch, budget 4", k, got)
	}
	t.Logf("steady-state SubmitAll(%d)+drain = %.2f allocs/batch (%.3f/job)", k, got, got/k)
}

// TestTouchReadyAllocBudget: touching an already-completed future is
// allocation-free (the completion gate materializes only when a toucher
// actually blocks).
func TestTouchReadyAllocBudget(t *testing.T) {
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		return testing.AllocsPerRun(500, func() {
			f := SpawnWith(rt, w, FutureFirst, leafFn) // completed on return
			if v, ok := f.TryTouch(w); !ok || v != 1 {
				panic("future not ready")
			}
		})
	})
	// The spawn allocates the Future; the touch itself must add nothing.
	if got > 1 {
		t.Errorf("FutureFirst spawn + ready TryTouch = %.1f allocs/op, budget 1", got)
	}
}

// TestFutureSize pins Future[int] inside the allocator's 80-byte size class
// and the embedded task at six words. A panic slot back in the Future, or a
// completion flag or touch latch beside the status word, moves every spawn to
// the 96-byte class, 16 bytes a task.
func TestFutureSize(t *testing.T) {
	if sz := unsafe.Sizeof(Future[int]{}); sz > 72 {
		t.Fatalf("Future[int] is %d bytes, want at most 72", sz)
	}
	if sz := unsafe.Sizeof(task{}); sz > 48 {
		t.Fatalf("task is %d bytes, want at most 48", sz)
	}
}
