//go:build !race

// Allocation-budget regression tests: AllocsPerRun pins the hot-path
// per-operation allocation count so the zero-allocation spawn work cannot
// silently erode. Excluded under -race (the race runtime adds its own
// allocations); CI runs the suite both ways, so these still gate merges.
package runtime

import (
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
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
// at most 3 allocations regardless of length (measured 3: the Stream, which
// embeds the producer task, the value array and the latch bitmap; a produced
// count and one lazy gate stand in for per-item channels).
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

// itemFn is a package-level producer function, so a stream's bytes are the
// runtime's alone.
func itemFn(_ *W, i int) int { return i }

// TestProduceDrainBytesBudget pins the bytes of a 512-int stream produced and
// drained on one worker: the Stream (144-byte class), 4 096 bytes of values
// and a 64-byte latch bitmap — measured 4 304 B per stream. A four-byte
// atomic.Bool latch per item costs 6 288, and 24-byte cells, value and
// completion word side by side, about 12.4 KB.
func TestProduceDrainBytesBudget(t *testing.T) {
	const n, streams = 512, 200
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for k := 0; k < streams; k++ {
			st := Produce(rt, w, n, itemFn)
			for i := 0; i < n; i++ {
				st.Get(w, i)
			}
		}
		stdruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / streams
	})
	if got > 4800 {
		t.Errorf("Produce+drain(%d) = %.1f B/stream, budget 4800", n, got)
	}
	t.Logf("Produce+drain(%d) = %.2f B/stream", n, got)
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
// state (freelist warm) one Submit+Wait pair whose waiter finds the job done
// allocates NOTHING — the root future and job state recycle through the
// freelist, admission is a CAS on the in-flight word, and the returned handle
// is a value. The waiter spins on Done before consuming so the measurement
// never installs a slot (see TestSubmitWaitBlockedAllocBudget for a waiter
// that blocks).
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

// TestSubmitWaitBlockedAllocBudget pins what a Submit+Wait pair costs when
// the waiter blocks, as every waiter of a job that is still running does:
// nothing. The waiter sleeps on a slot it borrows from the pool. The job
// returns only once the waiter's slot is installed in its root, so every
// Wait blocks.
func TestSubmitWaitBlockedAllocBudget(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	var root atomic.Pointer[task]
	body := func(*W) int {
		for {
			if r := root.Load(); r != nil && r.waiter.Load() != nil {
				return 1
			}
			stdruntime.Gosched()
		}
	}
	round := func() {
		j, err := Submit(rt, body)
		if err != nil {
			panic(err)
		}
		root.Store(&j.f.task)
		if j.Wait() != 1 {
			panic("bad job result")
		}
		root.Store(nil)
	}
	for i := 0; i < 8; i++ {
		round() // warm the freelist
	}
	got := testing.AllocsPerRun(200, round)
	if got > 0 {
		t.Errorf("steady-state Submit+blocked Wait = %.1f allocs/op, budget 0", got)
	}
	t.Logf("steady-state Submit+blocked Wait = %.2f allocs/op", got)
}

// spinFn is a package-level body that runs for 100 µs, long enough that
// whoever touches its future from outside blocks on it.
func spinFn(*W) int {
	for start := time.Now(); time.Since(start) < 100*time.Microsecond; {
	}
	return 1
}

// TestRunExternalAllocBudget: Run of a package-level function from a
// goroutine that is not a worker allocates the root future and nothing else,
// though its touch blocks: the caller sleeps on a slot it borrows from the
// pool.
func TestRunExternalAllocBudget(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	got := testing.AllocsPerRun(200, func() {
		if Run(rt, spinFn) != 1 {
			panic("bad result")
		}
	})
	if got > 1 {
		t.Errorf("external Run = %.1f allocs/op, budget 1 (the root future)", got)
	}
	t.Logf("external Run = %.2f allocs/op", got)
}

// heldTask is the task heldFn holds its worker on: heldFn returns once a
// toucher's slot is installed in it.
var heldTask atomic.Pointer[task]

func heldFn(*W) int {
	for {
		if t := heldTask.Load(); t != nil && t.waiter.Load() != nil {
			return 1
		}
		stdruntime.Gosched()
	}
}

// TestBlockedTouchAllocBudget: a worker's touch of a future that another
// worker is running, and that finishes only once the toucher has installed
// its slot, allocates nothing: the toucher blocks on the slot it owns. The
// spawn allocates the future, so the pair costs one allocation.
func TestBlockedTouchAllocBudget(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	got := Run(rt, func(w *W) float64 {
		return testing.AllocsPerRun(100, func() {
			f := SpawnWith(rt, w, ParentFirst, heldFn)
			heldTask.Store(&f.task)
			for f.unstarted() {
				stdruntime.Gosched() // until the other worker steals it
			}
			if f.Touch(w) != 1 {
				panic("bad result")
			}
			heldTask.Store(nil)
		})
	})
	if got > 1 {
		t.Errorf("spawn + blocked touch = %.1f allocs/op, budget 1 (the future)", got)
	}
	t.Logf("spawn + blocked touch = %.2f allocs/op", got)
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
// allocation-free.
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

// TestFutureSize pins a Future with a result of one word or less in the
// allocator's 48-byte size class, and the embedded task at five words: the
// status word, the job tag, the waiter word and the two-word body. A
// runtime pointer or a self-pointer back in the task, a panic slot in the
// Future: any one more word moves every spawn to the 64-byte class, 16
// bytes a task.
func TestFutureSize(t *testing.T) {
	if sz := unsafe.Sizeof(task{}); sz > 40 {
		t.Fatalf("task is %d bytes, want at most 40", sz)
	}
	for name, sz := range map[string]uintptr{
		"Future[int]":      unsafe.Sizeof(Future[int]{}),
		"Future[*int]":     unsafe.Sizeof(Future[*int]{}),
		"Future[struct{}]": unsafe.Sizeof(Future[struct{}]{}),
	} {
		if sz > 48 {
			t.Errorf("%s is %d bytes, want at most 48", name, sz)
		}
	}
}

// TestJobHandleSize pins the handle a Submit returns by value, and a server
// that keeps it boxes: two pointers, the ID and generation, the latency the
// consume captures and the consumed flag — 48 bytes, one size class.
func TestJobHandleSize(t *testing.T) {
	if sz := unsafe.Sizeof(Job[int]{}); sz > 48 {
		t.Fatalf("Job[int] is %d bytes, want at most 48", sz)
	}
}

// TestSpawnTouchBytesBudget pins the bytes the allocation count does not
// see: a ParentFirst spawn+touch of a package-level function on one worker
// allocates the Future and nothing else, so it costs one 48-byte size class
// (measured: 48 B/op; 64 with a 64-byte Future, 80 with a 72-byte one).
func TestSpawnTouchBytesBudget(t *testing.T) {
	const n = 10000
	got := inWorker(t, func(w *W) float64 {
		rt := w.Runtime()
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			SpawnWith(rt, w, ParentFirst, leafFn).Touch(w)
		}
		stdruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	})
	if got > 48 {
		t.Errorf("SpawnWith(ParentFirst)+Touch = %.1f B/op, budget 48", got)
	}
	t.Logf("SpawnWith(ParentFirst)+Touch = %.2f B/op", got)
}
