package runtime

import (
	"errors"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"futurelocality/internal/telemetry"
)

func newRT(t testing.TB, workers int) *Runtime {
	t.Helper()
	rt := New(WithWorkers(workers))
	t.Cleanup(rt.Shutdown)
	return rt
}

// fibSpawn is help-first parallel fib.
func fibSpawn(rt *Runtime, w *W, n int) int {
	if n < 2 {
		return n
	}
	if n < 10 { // sequential cutoff
		a, b := 0, 1
		for i := 2; i <= n; i++ {
			a, b = b, a+b
		}
		return b
	}
	f := Spawn(rt, w, func(w *W) int { return fibSpawn(rt, w, n-1) })
	y := fibSpawn(rt, w, n-2)
	x := f.Touch(w)
	return x + y
}

// fibJoin is work-first parallel fib.
func fibJoin(rt *Runtime, w *W, n int) int {
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
	x, y := Join2(rt, w,
		func(w *W) int { return fibJoin(rt, w, n-1) },
		func(w *W) int { return fibJoin(rt, w, n-2) },
	)
	return x + y
}

func TestFibSpawnCorrect(t *testing.T) {
	rt := newRT(t, 4)
	got := Run(rt, func(w *W) int { return fibSpawn(rt, w, 25) })
	if got != 75025 {
		t.Fatalf("fib(25) = %d, want 75025", got)
	}
}

func TestFibJoinCorrect(t *testing.T) {
	rt := newRT(t, 4)
	got := Run(rt, func(w *W) int { return fibJoin(rt, w, 25) })
	if got != 75025 {
		t.Fatalf("fib(25) = %d, want 75025", got)
	}
}

func TestSingleWorker(t *testing.T) {
	rt := newRT(t, 1)
	got := Run(rt, func(w *W) int { return fibSpawn(rt, w, 20) })
	if got != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", got)
	}
}

func TestManyWorkersTreeSum(t *testing.T) {
	rt := newRT(t, 8)
	var rec func(w *W, depth int) int
	rec = func(w *W, depth int) int {
		if depth == 0 {
			return 1
		}
		l, r := Join2(rt, w,
			func(w *W) int { return rec(w, depth-1) },
			func(w *W) int { return rec(w, depth-1) },
		)
		return l + r
	}
	got := Run(rt, func(w *W) int { return rec(w, 14) })
	if got != 1<<14 {
		t.Fatalf("tree sum = %d, want %d", got, 1<<14)
	}
}

func TestDoubleTouchPanics(t *testing.T) {
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { return 1 })
	f.Touch(nil)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrDoubleTouch) {
			t.Fatalf("recovered %v, want ErrDoubleTouch", r)
		}
	}()
	f.Touch(nil)
}

func TestFuturePassing(t *testing.T) {
	// Figure 5(b): a future created by one task is touched by another.
	rt := newRT(t, 4)
	got := Run(rt, func(w *W) int {
		x := Spawn(rt, w, func(*W) int { return 21 })
		consumer := Spawn(rt, w, func(w *W) int { return x.Touch(w) * 2 })
		return consumer.Touch(w)
	})
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestOutOfOrderTouches(t *testing.T) {
	// Figure 5(a) / MethodA: create x then y, touch y first.
	rt := newRT(t, 4)
	got := Run(rt, func(w *W) int {
		x := Spawn(rt, w, func(*W) int { return 1 })
		y := Spawn(rt, w, func(*W) int { return 2 })
		a := y.Touch(w)
		b := x.Touch(w)
		return a*10 + b
	})
	if got != 21 {
		t.Fatalf("got %d, want 21", got)
	}
}

func TestPanicPropagation(t *testing.T) {
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	f.Touch(nil)
}

func TestPanicInsideRun(t *testing.T) {
	rt := newRT(t, 2)
	defer func() {
		if r := recover(); r != "inner" {
			t.Fatalf("recovered %v, want inner", r)
		}
	}()
	Run(rt, func(w *W) int {
		f := Spawn(rt, w, func(*W) int { panic("inner") })
		return f.Touch(w)
	})
}

func TestDoneNonBlocking(t *testing.T) {
	rt := newRT(t, 2)
	release := make(chan struct{})
	f := Spawn(rt, nil, func(*W) int { <-release; return 5 })
	if f.Done() {
		t.Fatal("future done before release")
	}
	close(release)
	if got := f.Touch(nil); got != 5 {
		t.Fatalf("got %d", got)
	}
	if !f.Done() {
		t.Fatal("future not done after touch")
	}
}

func TestExternalSpawnManyGoroutines(t *testing.T) {
	// External goroutines submit concurrently through the global queue.
	rt := newRT(t, 4)
	var sum atomic.Int64
	done := make(chan struct{}, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			f := Spawn(rt, nil, func(*W) int { return i })
			sum.Add(int64(f.Touch(nil)))
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 16; i++ {
		<-done
	}
	if sum.Load() != 120 {
		t.Fatalf("sum = %d, want 120", sum.Load())
	}
}

func TestTryTouch(t *testing.T) {
	rt := newRT(t, 2)
	release := make(chan struct{})
	f := Spawn(rt, nil, func(*W) int { <-release; return 9 })
	if _, ok := f.TryTouch(nil); ok {
		t.Fatal("TryTouch succeeded before completion")
	}
	close(release)
	// Wait for completion, then TryTouch must take the value.
	for !f.Done() {
	}
	v, ok := f.TryTouch(nil)
	if !ok || v != 9 {
		t.Fatalf("TryTouch = %d,%v", v, ok)
	}
	// A later Touch must panic: the single touch is spent.
	defer func() {
		if recover() == nil {
			t.Fatal("Touch after successful TryTouch should panic")
		}
	}()
	f.Touch(nil)
}

func TestTryTouchFailureDoesNotConsume(t *testing.T) {
	rt := newRT(t, 2)
	release := make(chan struct{})
	f := Spawn(rt, nil, func(*W) int { <-release; return 3 })
	if _, ok := f.TryTouch(nil); ok {
		t.Fatal("premature success")
	}
	close(release)
	if got := f.Touch(nil); got != 3 {
		t.Fatalf("Touch after failed TryTouch = %d", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := newRT(t, 4)
	Run(rt, func(w *W) int { return fibSpawn(rt, w, 24) })
	s := rt.Stats()
	if want := cutFibSpawns(24, 10) + 1; s.TasksRun != want {
		t.Fatalf("TasksRun = %d, want the run's %d tasks", s.TasksRun, want)
	}
	if s.IntraSteals != s.Steals || s.CrossSteals != 0 {
		t.Fatalf("intra %d, cross %d, steals %d: a runtime is one steal domain", s.IntraSteals, s.CrossSteals, s.Steals)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Shutdown()
	rt.Shutdown()
}

func TestRuntimeQuiescesWhenIdle(t *testing.T) {
	// Workers must park, not spin: run something, then observe the runtime
	// stays healthy across an idle period and accepts new work.
	rt := newRT(t, 4)
	Run(rt, func(w *W) int { return fibSpawn(rt, w, 18) })
	// The poll window is a bounded delay before the sleep, not a substitute.
	waitUntil(func() bool { return rt.parked.Load() == 4 })
	time.Sleep(20 * time.Millisecond)
	if n := rt.parked.Load(); n != 4 {
		t.Fatalf("%d of 4 workers parked on an idle runtime", n)
	}
	got := Run(rt, func(w *W) int { return fibSpawn(rt, w, 18) })
	if got != 2584 {
		t.Fatalf("fib(18) = %d, want 2584", got)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	rt := New()
	defer rt.Shutdown()
	if rt.Workers() < 1 {
		t.Fatalf("workers = %d", rt.Workers())
	}
}

func TestWorkFirstMostlyAvoidsBlocking(t *testing.T) {
	// Work-first fork-join on one worker must never block on a touch: the
	// worker always pops its own continuation back.
	rt := newRT(t, 1)
	Run(rt, func(w *W) int { return fibJoin(rt, w, 22) })
	s := rt.Stats()
	if s.BlockedTouches != 0 {
		t.Fatalf("blocked touches = %d, want 0 on a single worker", s.BlockedTouches)
	}
	if s.Steals != 0 {
		t.Fatalf("steals = %d, want 0 on a single worker", s.Steals)
	}
}

func BenchmarkFibSpawn8(b *testing.B) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Run(rt, func(w *W) int { return fibSpawn(rt, w, 24) }); got != 46368 {
			b.Fatal(got)
		}
	}
}

// BenchmarkSpawnTouch times a worker-local ParentFirst spawn and its inline
// touch outside any job, the pair the benchmark ladder's
// runtime.spawn_touch_pf_ns rung times, and BenchmarkSpawnTouchInJob the same
// pair inside a submitted job, where the spawn takes a liveness reference on
// the job and the retire gives it back.
func BenchmarkSpawnTouch(b *testing.B)      { benchSpawnTouch(b, false) }
func BenchmarkSpawnTouchInJob(b *testing.B) { benchSpawnTouch(b, true) }

func benchSpawnTouch(b *testing.B, inJob bool) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	leaf := func(*W) int { return 1 }
	body := func(w *W) int {
		for i := 0; i < b.N; i++ {
			SpawnWith(rt, w, ParentFirst, leaf).Touch(w)
		}
		return 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	if !inJob {
		Run(rt, body)
		return
	}
	j, err := Submit(rt, body)
	if err != nil {
		b.Fatal(err)
	}
	j.Wait()
}

func BenchmarkFibJoin8(b *testing.B) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Run(rt, func(w *W) int { return fibJoin(rt, w, 24) }); got != 46368 {
			b.Fatal(got)
		}
	}
}

// TestWakeupSignalStress hammers the park/signal protocol that replaced
// lock-and-broadcast: each Run pushes exactly one task at an otherwise
// idle pool, so nearly every iteration must wake a parked worker through
// the publish-then-parked-load handshake (see push). A lost wakeup
// hangs the test (the package test timeout catches it); racing external
// submitters exercise the parked.Load fast path against concurrent parks.
func TestWakeupSignalStress(t *testing.T) {
	rt := newRT(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				want := i
				if got := Run(rt, func(*W) int { return want }); got != want {
					t.Errorf("Run = %d want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParkLostWakeup races one push against one park, round after round,
// on a loop-less runtime where the test owns both sides: a parker goroutine
// drives worker 0 (park, then find and run whatever woke it) and the test
// goroutine makes the round's single push — from worker 1, from outside, or
// through SubmitAll. The two are released together by the round counter,
// and the pusher then waits a few nanoseconds more or less, so its parked
// load falls on either side of the parker's parked increment. A push that
// reads parked == 0 leaves the wakeup to the parker's own look at the
// queues; if that look could miss the task, worker 0 would sleep on it, the
// pusher would poll forever and the test would hang — so run it with a
// short -timeout (and -race -count=10 in CI).
//
// Each pusher runs a second time with the parker going to sleep the way a
// worker does, through dry: it polls, finds nothing and parks at the end of
// the window, and the pusher aims at that moment instead. A task the poll
// itself finds is run like any other.
func TestParkLostWakeup(t *testing.T) {
	pushers := []struct {
		name string
		// push publishes one leaf and returns a poll for its completion. The
		// pusher polls rather than blocks in a touch, so both goroutines stay
		// on their CPUs and each round is a fresh race.
		push func(rt *Runtime) (done func() bool)
	}{
		{"worker", func(rt *Runtime) func() bool {
			return SpawnWith(rt, rt.workers[1], ParentFirst, leafIntFn).Done
		}},
		{"external", func(rt *Runtime) func() bool {
			return SpawnWith(rt, nil, ParentFirst, leafIntFn).Done
		}},
		{"SubmitAll", func(rt *Runtime) func() bool {
			jobs, err := SubmitAll(rt, []func(*W) int{leafIntFn}, nil)
			if err != nil {
				panic(err)
			}
			return jobs[0].Done
		}},
	}
	sleepers := []struct {
		name string
		// sleep takes worker 0 into park and returns what it finds afterwards.
		sleep func(w *W) (*task, execFlags)
		// after is how long after the round's announcement park is due, which
		// is also what a round costs: the slower sleeper gets fewer.
		after  time.Duration
		rounds int64
	}{
		{"park", func(w *W) (*task, execFlags) {
			w.park()
			return w.find()
		}, 0, 2000},
		{"poll", func(w *W) (*task, execFlags) {
			if t, fl := w.dry(); t != nil {
				return t, fl
			}
			return w.find()
		}, pollLimit, 500},
	}
	for _, p := range pushers {
		t.Run(p.name, func(t *testing.T) {
			for _, sl := range sleepers {
				t.Run(sl.name, func(t *testing.T) {
					rounds := sl.rounds
					rt := bareRuntime(2)
					var round atomic.Int64
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := rt.workers[0]
						// ran counts executed tasks, not parks: a drain can run the next
						// round's task too when its push comes early.
						for ran := int64(0); ran < rounds; {
							// Spin, so that park starts within nanoseconds of the round's
							// announcement; yield only if it is long in coming (one CPU).
							for i := 0; round.Load() <= ran; i++ {
								if i > 10000 {
									stdruntime.Gosched()
								}
							}
							for task, fl := sl.sleep(w); task != nil; task, fl = w.find() {
								w.execCtx(task, fl)
								ran++
							}
						}
					}()
					for r := int64(1); r <= rounds; r++ {
						round.Store(r)
						for t0 := time.Now(); time.Since(t0) < sl.after; {
						}
						for i := r % 128; i > 0; i-- {
							round.Load() // a few ns per turn: where the push lands varies
						}
						for done := p.push(rt); !done(); {
							stdruntime.Gosched()
						}
					}
					wg.Wait()
					snap := rt.TelemetrySnapshot()
					t.Logf("%d rounds: worker 0 slept in %d and found the task polling in %d, the push signalled in %d",
						rounds, snap.Total(telemetry.CParks), snap.Total(telemetry.CPollFinds), snap.Total(telemetry.CWakeups))
				})
			}
		})
	}
}

// TestDequeDepthBoundedByRecursion pins the eager pop: a touched task leaves
// its creator's deque before it runs, so the deque of a fork-join run is as
// deep as the recursion (20 here), not as long as the run (about 11 000
// tasks, which would have grown the ring to 16 384 slots).
func TestDequeDepthBoundedByRecursion(t *testing.T) {
	rt := newRT(t, 1)
	var fib func(w *W, n int) int
	fib = func(w *W, n int) int {
		if n < 2 {
			return n
		}
		f := Spawn(rt, w, func(w *W) int { return fib(w, n-1) })
		y := fib(w, n-2)
		return f.Touch(w) + y
	}
	if got := Run(rt, func(w *W) int { return fib(w, 20) }); got != 6765 {
		t.Fatalf("fib(20) = %d", got)
	}
	if c := rt.workers[0].dq.Cap(); c > 64 {
		t.Fatalf("deque ring grew to %d slots; want at most 64 (recursion depth 20)", c)
	}
	if st := rt.Stats(); st.InlineTouches == 0 {
		t.Fatalf("no inline touch: %v", st)
	}
}

// TestDequeDepthBoundedWithPassedFutures is the twin for futures that are not
// touched by their creator: each task hands its oldest untouched future to the
// next child it spawns, which touches it (the paper's Figure 5(b) pattern).
// Such a future is run inline from the child, not from the bottom of the
// deque, so its entry stays behind; the worker drops it once the live entries
// above it are gone (trimDone). Without that nothing removes the entries
// before the run ends, and the ring grows with the run — several thousand
// tasks here — not with its depth of 12.
func TestDequeDepthBoundedWithPassedFutures(t *testing.T) {
	rt := newRT(t, 1)
	next := func(r uint64) uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	var tasks atomic.Int64
	var tree func(w *W, seed uint64, depth int) int
	tree = func(w *W, seed uint64, depth int) int {
		tasks.Add(1)
		acc := int(seed & 0xff)
		if depth == 0 {
			return acc
		}
		r := next(seed)
		var open []*Future[int]
		for kids := 1 + int(r%3); kids > 0; kids-- {
			r = next(r)
			child := r
			r = next(r)
			var passed *Future[int]
			if w != nil && len(open) > 0 && r&1 == 0 {
				passed, open = open[0], open[1:]
			}
			body := func(w *W) int {
				v := tree(w, child, depth-1)
				if passed != nil {
					v += passed.Touch(w)
				}
				return v
			}
			if w == nil { // the sequential reference
				acc += body(nil)
				continue
			}
			open = append(open, Spawn(rt, w, body))
		}
		for _, f := range open {
			acc += f.Touch(w)
		}
		return acc
	}
	const seed, depth = 0x9e3779b97f4a7c15, 12
	want := tree(nil, seed, depth)
	tasks.Store(0)
	if got := Run(rt, func(w *W) int { return tree(w, seed, depth) }); got != want {
		t.Fatalf("tree = %d, want %d", got, want)
	}
	if n := tasks.Load(); n < 2000 {
		t.Fatalf("only %d tasks: the run is too small to tell its length from its depth", n)
	}
	if c := rt.workers[0].dq.Cap(); c > 64 {
		t.Fatalf("deque ring grew to %d slots over %d tasks; want at most 64 (depth %d, at most 3 children each)", c, tasks.Load(), depth)
	}
}

// TestRuntimeLayout pins the Runtime's two sections: everything the spawn
// and steal paths read but nobody writes after New (closed is written once)
// sits at least a cache line before the first field that submitters, parkers
// and finishers write.
func TestRuntimeLayout(t *testing.T) {
	var rt Runtime
	end := func(off, size uintptr) uintptr { return off + size }
	headerEnd := max(
		end(unsafe.Offsetof(rt.workers), unsafe.Sizeof(rt.workers)),
		end(unsafe.Offsetof(rt.discipline), unsafe.Sizeof(rt.discipline)),
		end(unsafe.Offsetof(rt.closed), unsafe.Sizeof(rt.closed)),
		end(unsafe.Offsetof(rt.prof), unsafe.Sizeof(rt.prof)),
		end(unsafe.Offsetof(rt.flight), unsafe.Sizeof(rt.flight)),
		end(unsafe.Offsetof(rt.tele), unsafe.Sizeof(rt.tele)),
		end(unsafe.Offsetof(rt.teleExt), unsafe.Sizeof(rt.teleExt)),
	)
	firstWritten := min(
		unsafe.Offsetof(rt.mu),
		unsafe.Offsetof(rt.idle),
		unsafe.Offsetof(rt.parked),
		unsafe.Offsetof(rt.taskSeq),
		unsafe.Offsetof(rt.global),
		unsafe.Offsetof(rt.jobServer),
		unsafe.Offsetof(rt.latencyHist),
		unsafe.Offsetof(rt.queueWaitHist),
	)
	if firstWritten < headerEnd+cacheLine {
		t.Fatalf("written state starts at offset %d, within a cache line of the read-mostly header ending at %d",
			firstWritten, headerEnd)
	}
}

// TestWorkerLayout pins W's two sections, whose padding is hand-computed:
// the owner-written state starts on a cache line of its own, past everything
// thieves read, and the struct is a whole number of lines — which is also
// what makes the allocator place it line-aligned, so neither section shares
// a line with a neighboring object.
func TestWorkerLayout(t *testing.T) {
	var w W
	headerEnd := unsafe.Offsetof(w.victims) + unsafe.Sizeof(w.victims)
	owner := unsafe.Offsetof(w.rng)
	if owner%cacheLine != 0 || owner < headerEnd {
		t.Fatalf("owner-written section starts at offset %d; want a multiple of %d at or past the header's end at %d",
			owner, cacheLine, headerEnd)
	}
	if sz := unsafe.Sizeof(w); sz%cacheLine != 0 {
		t.Fatalf("W is %d bytes, not a multiple of %d", sz, cacheLine)
	}
	// The fields a spawn, a touch and a run write fit the section's first line.
	if end := unsafe.Offsetof(w.refsDropped) + unsafe.Sizeof(w.refsDropped); end > owner+cacheLine {
		t.Fatalf("per-task owner state ends at offset %d, past the first owner line at %d", end, owner+cacheLine)
	}
	if addr := uintptr(unsafe.Pointer(newRT(t, 1).workers[0])); addr%cacheLine != 0 {
		t.Fatalf("a worker was allocated at %#x, not line-aligned", addr)
	}
}

// TestVictimSelectionDeterministic pins that the xorshift victim stream is
// a pure function of WithSeed — the reproducibility contract math/rand
// provided before it. It builds detached W values rather than starting a
// runtime: a live worker's loop advances the same rng state concurrently.
func TestVictimSelectionDeterministic(t *testing.T) {
	stream := func(seed int64) []uint64 {
		w := &W{rng: seedXorshift(seed, 0)}
		out := make([]uint64, 8)
		for i := range out {
			out[i] = w.nextRand()
		}
		return out
	}
	a, b := stream(7), stream(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := stream(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical victim streams")
	}
}
