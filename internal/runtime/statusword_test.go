package runtime

import (
	"errors"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/telemetry"
)

// Tests for the task status word: the task's ID, scheduling state,
// completion and the single-touch latch share one atomic word, so every touch
// entry point, in every situation a future can be in, must deliver the result
// exactly once and answer every later touch with ErrDoubleTouch, and no
// writer may disturb the ID. CI runs the tests named DoubleTouch and
// StatusWord under -race -count=10 at GOMAXPROCS=4.

func sevenFn(*W) int { return 7 }

// asError turns a recovered panic value into the error TouchErr would have
// returned for it, so the panicking and the error-returning entry points
// can share expectations.
func asError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return &PanicError{Value: r}
}

// catch runs a consume that reports failure by panicking and returns the
// panic as the error the error-returning variant would have given.
func catch(consume func() int) (v int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = asError(r)
		}
	}()
	return consume(), nil
}

// touchEntry is one way to consume a future.
type touchEntry struct {
	name string
	// waits is false for TryTouch, which never waits for an unfinished
	// future and so cannot be put in the situations that need a wait.
	waits bool
	call  func(f *Future[int], w *W) (int, error)
}

var touchEntries = []touchEntry{
	{"Touch", true, func(f *Future[int], w *W) (int, error) {
		return catch(func() int { return f.Touch(w) })
	}},
	{"TouchErr", true, func(f *Future[int], w *W) (int, error) { return f.touchErr(w) }},
	{"TryTouch", false, func(f *Future[int], w *W) (int, error) {
		return catch(func() int {
			v, ok := f.TryTouch(w)
			if !ok {
				panic("TryTouch of a finished future took nothing")
			}
			return v
		})
	}},
}

// waitUntil spins, yielding, until cond holds. The conditions below are all
// atomic reads of state another goroutine is about to publish.
func waitUntil(cond func() bool) {
	for !cond() {
		stdruntime.Gosched()
	}
}

// touchOutcome is the two consumes of one future: the first call's result
// and both calls' errors.
type touchOutcome struct {
	v          int
	err1, err2 error
}

// touchCases are the situations a future can be in when it is touched. Each
// builds a future in that situation and consumes it twice through e.
var touchCases = []struct {
	name      string
	needsWait bool
	// want checks the first consume; nil means "value 7, no error".
	want func(t *testing.T, o touchOutcome)
	run  func(t *testing.T, e touchEntry) touchOutcome
}{
	{"inline", true, nil, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := newRT(t, 1)
		Run(rt, func(w *W) int {
			f := Spawn(rt, w, sevenFn)
			o.v, o.err1 = e.call(f, w)
			_, o.err2 = e.call(f, w)
			return 0
		})
		if got := rt.Stats().InlineTouches; got != 1 {
			t.Errorf("inline touches = %d, want 1", got)
		}
		return o
	}},
	{"already done", false, nil, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := newRT(t, 2)
		f := Spawn(rt, nil, sevenFn)
		waitUntil(f.Done)
		o.v, o.err1 = e.call(f, nil)
		_, o.err2 = e.call(f, nil)
		return o
	}},
	{"helped", true, nil, func(t *testing.T, e touchEntry) (o touchOutcome) {
		// passed is running "elsewhere" (claimed by hand); the only other
		// work is a task that completes it, so the toucher's help loop runs
		// that task and then finds passed done.
		rt := bareRuntime(2)
		w0 := rt.workers[0]
		passed := SpawnWith(rt, nil, ParentFirst, sevenFn)
		if !passed.claim() {
			t.Fatal("could not pre-claim the future")
		}
		SpawnWith(rt, w0, ParentFirst, func(*W) int {
			passed.result = 7
			passed.complete()
			return 0
		})
		o.v, o.err1 = e.call(passed, w0)
		_, o.err2 = e.call(passed, w0)
		if got := w0.tele.Load(telemetry.CHelpedTasks); got != 1 {
			t.Errorf("helped tasks = %d, want 1", got)
		}
		return o
	}},
	{"blocked", true, nil, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := bareRuntime(1)
		w0 := rt.workers[0]
		passed := SpawnWith(rt, nil, ParentFirst, sevenFn)
		if !passed.claim() {
			t.Fatal("could not pre-claim the future")
		}
		go func() {
			// The toucher's slot is installed only once it is past its last
			// look for work and about to sleep.
			waitUntil(func() bool { return passed.waiter.Load() != nil })
			passed.result = 7
			passed.complete()
		}()
		o.v, o.err1 = e.call(passed, w0)
		_, o.err2 = e.call(passed, w0)
		if got := w0.tele.Load(telemetry.CBlockedTouches); got != 1 {
			t.Errorf("blocked touches = %d, want 1", got)
		}
		return o
	}},
	{"external", true, nil, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := newRT(t, 2)
		release := make(chan struct{})
		f := Spawn(rt, nil, func(*W) int { <-release; return 7 })
		go func() {
			waitUntil(func() bool { return f.waiter.Load() != nil })
			close(release)
		}()
		o.v, o.err1 = e.call(f, nil)
		_, o.err2 = e.call(f, nil)
		return o
	}},
	{"cancelled by Shutdown", false, func(t *testing.T, o touchOutcome) {
		if !errors.Is(o.err1, ErrClosed) {
			t.Errorf("first consume: err = %v, want ErrClosed", o.err1)
		}
	}, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := New(WithWorkers(1))
		block, running := make(chan struct{}), make(chan struct{})
		Spawn(rt, nil, func(*W) int { close(running); <-block; return 0 })
		<-running
		queued := Spawn(rt, nil, sevenFn) // the lone worker is busy
		down := make(chan struct{})
		go func() { rt.Shutdown(); close(down) }()
		waitUntil(rt.Closed)
		close(block)
		<-down
		o.v, o.err1 = e.call(queued, nil)
		_, o.err2 = e.call(queued, nil)
		return o
	}},
	{"panicking body", false, func(t *testing.T, o touchOutcome) {
		var pe *PanicError
		if !errors.As(o.err1, &pe) || pe.Value != "boom" {
			t.Errorf("first consume: err = %v, want a PanicError carrying \"boom\"", o.err1)
		}
	}, func(t *testing.T, e touchEntry) (o touchOutcome) {
		rt := newRT(t, 2)
		f := Spawn(rt, nil, func(*W) int { panic("boom") })
		waitUntil(f.Done)
		o.v, o.err1 = e.call(f, nil)
		_, o.err2 = e.call(f, nil)
		return o
	}},
}

// TestDoubleTouchTable: every entry point × every situation gives one
// success (or the situation's one failure) and then ErrDoubleTouch.
func TestDoubleTouchTable(t *testing.T) {
	for _, c := range touchCases {
		for _, e := range touchEntries {
			if c.needsWait && !e.waits {
				continue
			}
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				o := c.run(t, e)
				if c.want != nil {
					c.want(t, o)
				} else if o.err1 != nil || o.v != 7 {
					t.Errorf("first consume = %d, %v; want 7, nil", o.v, o.err1)
				}
				if !errors.Is(o.err2, ErrDoubleTouch) {
					t.Errorf("second consume: err = %v, want ErrDoubleTouch", o.err2)
				}
			})
		}
	}
}

// TestDoubleTouchJobTable is the same table for a job handle, whose root
// future is always consumed from outside the pool: Wait and WaitErr × done,
// blocked, cancelled and panicking jobs. The second consume goes through the
// same handle, the third through a copy taken before the first.
func TestDoubleTouchJobTable(t *testing.T) {
	entries := []struct {
		name string
		call func(j *Job[int]) (int, error)
	}{
		{"Wait", func(j *Job[int]) (int, error) { return catch(j.Wait) }},
		{"WaitErr", func(j *Job[int]) (int, error) { return j.WaitErr() }},
	}
	isClosed := func(err error) bool { return errors.Is(err, ErrClosed) }
	cases := []struct {
		name string
		// ok accepts the first consume's outcome.
		ok   func(v int, err error) bool
		make func(t *testing.T) Job[int]
	}{
		{"already done", nil, func(t *testing.T) Job[int] {
			j, err := Submit(newRT(t, 2), sevenFn)
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(j.Done)
			return j
		}},
		{"blocked", nil, func(t *testing.T) Job[int] {
			release := make(chan struct{})
			j, err := Submit(newRT(t, 2), func(*W) int { <-release; return 7 })
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				waitUntil(func() bool { return j.f.waiter.Load() != nil })
				close(release)
			}()
			return j
		}},
		{"cancelled by Shutdown", func(_ int, err error) bool { return isClosed(err) }, func(t *testing.T) Job[int] {
			rt := New(WithWorkers(1))
			block, running := make(chan struct{}), make(chan struct{})
			Spawn(rt, nil, func(*W) int { close(running); <-block; return 0 })
			<-running
			j, err := Submit(rt, sevenFn)
			if err != nil {
				t.Fatal(err)
			}
			down := make(chan struct{})
			go func() { rt.Shutdown(); close(down) }()
			waitUntil(rt.Closed)
			close(block)
			<-down
			return j
		}},
		{"panicking body", func(_ int, err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Value == "boom"
		}, func(t *testing.T) Job[int] {
			j, err := Submit(newRT(t, 2), func(*W) int { panic("boom") })
			if err != nil {
				t.Fatal(err)
			}
			return j
		}},
	}
	for _, c := range cases {
		for _, e := range entries {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				j := c.make(t)
				cp := j
				v, err := e.call(&j)
				if c.ok == nil && (err != nil || v != 7) || c.ok != nil && !c.ok(v, err) {
					t.Errorf("first consume = %d, %v", v, err)
				}
				if _, err := e.call(&j); !errors.Is(err, ErrDoubleTouch) {
					t.Errorf("second consume, same handle: err = %v, want ErrDoubleTouch", err)
				}
				// A copy must not be consumed while the root may be recycled
				// under it (see Job); once it reads as stale, it is refused.
				waitUntil(cp.stale)
				if _, err := e.call(&cp); !errors.Is(err, ErrDoubleTouch) {
					t.Errorf("consume through a stale copy: err = %v, want ErrDoubleTouch", err)
				}
			})
		}
	}
}

// TestDoubleTouchConcurrent: two goroutines touch one future at the same
// moment. Exactly one gets the value, the other ErrDoubleTouch, and nobody
// hangs — in particular not when a worker's inline touch has already popped
// the task off its deque and then loses the latch to the outside toucher
// (runInline must put the still-live task back).
func TestDoubleTouchConcurrent(t *testing.T) {
	const rounds = 400
	check := func(t *testing.T, r int, v [2]int, err [2]error) {
		t.Helper()
		won := -1
		for i := range err {
			switch {
			case err[i] == nil && won < 0:
				won = i
			case err[i] == nil:
				t.Fatalf("round %d: both touches succeeded", r)
			case !errors.Is(err[i], ErrDoubleTouch):
				t.Fatalf("round %d: touch %d: %v", r, i, err[i])
			}
		}
		if won < 0 {
			t.Fatalf("round %d: both touches were refused", r)
		}
		if v[won] != r {
			t.Fatalf("round %d: winner got %d", r, v[won])
		}
	}
	t.Run("external+external", func(t *testing.T) {
		rt := newRT(t, 2)
		for r := 0; r < rounds; r++ {
			f := Spawn(rt, nil, func(*W) int { return r })
			var v [2]int
			var err [2]error
			var start, done sync.WaitGroup
			start.Add(1)
			done.Add(2)
			for i := 0; i < 2; i++ {
				go func() {
					defer done.Done()
					start.Wait()
					v[i], err[i] = f.touchErr(nil)
				}()
			}
			start.Done()
			done.Wait()
			check(t, r, v, err)
		}
	})
	t.Run("worker+external", func(t *testing.T) {
		rt := newRT(t, 2)
		for r := 0; r < rounds; r++ {
			var v [2]int
			var err [2]error
			hand := make(chan *Future[int])
			done := make(chan struct{})
			go func() {
				defer close(done)
				v[1], err[1] = (<-hand).touchErr(nil)
			}()
			Run(rt, func(w *W) int {
				f := Spawn(rt, w, func(*W) int { return r })
				hand <- f
				for i := r % 64; i > 0; i-- {
					f.Done() // a few ns per turn: where the two touches meet varies
				}
				v[0], err[0] = f.touchErr(w)
				return 0
			})
			<-done
			check(t, r, v, err)
		}
	})
}

// TestStatusWordLatchSurvivesCompletion races the three writers of one
// status word: the completing Add, a toucher's Or, and a waiter installing
// its slot. The latch must survive the Add, the touch must be granted
// exactly once, and the waiter must wake.
func TestStatusWordLatchSurvivesCompletion(t *testing.T) {
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		var tk task
		if !tk.claim() {
			t.Fatal("claim of a fresh task failed")
		}
		var granted atomic.Int32
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(3)
		go func() { defer done.Done(); start.Wait(); tk.complete() }()
		go func() { defer done.Done(); start.Wait(); tk.waitDone(newSlot()) }()
		go func() {
			defer done.Done()
			start.Wait()
			if tk.spendTouch() {
				granted.Add(1)
			}
		}()
		start.Done()
		done.Wait()
		if got := tk.status.Load(); got != stateDone|stateTouched {
			t.Fatalf("round %d: status word = %#x, want done|touched (%#x)", r, got, stateDone|stateTouched)
		}
		if granted.Load() != 1 || tk.spendTouch() {
			t.Fatalf("round %d: touch granted %d times, then again: want once", r, granted.Load())
		}
	}
}

// TestStatusWordTouchVsThief races an owner's inline touch (pop the deque,
// CAS created → running|touched) against a thief's claim of the same task.
// The body runs once, the toucher gets its value whoever ran it, and the
// word ends done|touched.
func TestStatusWordTouchVsThief(t *testing.T) {
	const rounds = 1000
	rt := bareRuntime(2)
	w0, w1 := rt.workers[0], rt.workers[1]
	for r := 0; r < rounds; r++ {
		var runs atomic.Int32
		f := SpawnWith(rt, w0, ParentFirst, func(*W) int { runs.Add(1); return r })
		var v int
		var err error
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			v, err = f.touchErr(w0)
		}()
		id := f.id()
		go func() {
			defer done.Done()
			start.Wait()
			if tk, fl := w1.stealFrom(w0); tk != nil {
				w1.execCtx(tk, fl)
			}
		}()
		start.Done()
		done.Wait()
		if err != nil || v != r || runs.Load() != 1 {
			t.Fatalf("round %d: touch = %d, %v after %d runs of the body; want %d, nil, 1", r, v, err, runs.Load(), r)
		}
		wantWord(t, "touch against thief", &f.task, id, stateDone|stateTouched)
		if _, err := f.touchErr(w0); !errors.Is(err, ErrDoubleTouch) {
			t.Fatalf("round %d: second touch: %v", r, err)
		}
	}
}

// TestStatusWordTouchedBeforeStart: a future touched from outside the pool
// before anyone started it sits in a deque as created|touched with its
// toucher asleep. find and stealFrom must still treat it as live work.
func TestStatusWordTouchedBeforeStart(t *testing.T) {
	for _, via := range []string{"find", "stealFrom"} {
		t.Run(via, func(t *testing.T) {
			rt := bareRuntime(2)
			w0, w1 := rt.workers[0], rt.workers[1]
			f := SpawnWith(rt, w0, ParentFirst, sevenFn)
			id := f.id()
			res := make(chan int)
			go func() { res <- f.Touch(nil) }()
			waitUntil(func() bool { return f.waiter.Load() != nil })
			wantWord(t, "touched before start", &f.task, id, stateCreated|stateTouched)
			w, tk, fl := w0, (*task)(nil), execFlags(0)
			if via == "find" {
				tk, fl = w0.find()
			} else {
				w = w1
				tk, fl = w1.stealFrom(w0)
			}
			if tk != &f.task {
				t.Fatalf("%s returned %p, want the touched, unstarted future %p", via, tk, &f.task)
			}
			if !w.execCtx(tk, fl) {
				t.Fatal("could not claim the touched, unstarted future")
			}
			if got := <-res; got != 7 {
				t.Fatalf("Touch = %d, want 7", got)
			}
			wantWord(t, "run after the touch", &f.task, id, stateDone|stateTouched)
		})
	}
}

// spin waits for cond, yielding the P now and then: a toucher spinning on
// its own P starts the instant cond holds.
func spin(cond func() bool) {
	for i := 1; !cond(); i++ {
		if i%1024 == 0 {
			stdruntime.Gosched()
		}
	}
}

// wantWord fails the test unless tk's status word holds the ID id and
// exactly the state and latch bits bits.
func wantWord(t *testing.T, step string, tk *task, id, bits uint64) {
	t.Helper()
	if got := tk.status.Load(); got != id<<idShift|bits {
		t.Fatalf("%s: status word %#x is ID %d with bits %#x, want ID %d with bits %#x",
			step, got, got>>idShift, got&(1<<idShift-1), id, bits)
	}
}

// TestStatusWordKeepsTaskID: a task's ID shares the status word with its
// state and latch, so every writer of the word — claim, the touch latch,
// completion, a worker's inline claim+latch, the push-back after that CAS is
// lost, a shutdown cancellation — must leave the ID as it found it and set
// exactly its own bits; a recycled job root must come back with no ID at all
// before its next launch gives it a new one; and the widest ID must fit.
func TestStatusWordKeepsTaskID(t *testing.T) {
	t.Run("claim, latch, complete", func(t *testing.T) {
		rt := bareRuntime(1)
		w := rt.workers[0]
		f := SpawnWith(rt, w, ParentFirst, sevenFn)
		id := w.idNext // the ID the spawn drew from the worker's block
		wantWord(t, "spawned", &f.task, id, stateCreated)
		if !f.claim() {
			t.Fatal("claim of a fresh task failed")
		}
		wantWord(t, "claimed", &f.task, id, stateRunning)
		if !f.spendTouch() {
			t.Fatal("the first touch was refused")
		}
		wantWord(t, "latched", &f.task, id, stateRunning|stateTouched)
		f.complete()
		wantWord(t, "completed", &f.task, id, stateDone|stateTouched)
	})

	t.Run("inline claim and latch", func(t *testing.T) {
		rt := bareRuntime(1)
		w := rt.workers[0]
		var f *Future[int]
		var running uint64
		f = SpawnWith(rt, w, ParentFirst, func(*W) int { running = f.status.Load(); return 7 })
		id := w.idNext
		if !w.runInline(&f.task, stateTouched) {
			t.Fatal("the worker did not run its own unstarted future inline")
		}
		if running != id<<idShift|stateRunning|stateTouched {
			t.Fatalf("the body saw the status word %#x, want ID %d running|touched", running, id)
		}
		wantWord(t, "inline run", &f.task, id, stateDone|stateTouched)
		if v := f.finish(); v != 7 {
			t.Fatalf("inline run computed %d, want 7", v)
		}
	})

	t.Run("push-back after a lost claim", func(t *testing.T) {
		// The worker's touch and an outside touch race for one future, round
		// after round, the worker starting a little later each round: the
		// outside latch lands after the worker's CAS, before its first look,
		// and — now and then — between its pop and its CAS, where the worker
		// pushes the still-live task back. Every round must keep the ID.
		const rounds = 512
		rt := bareRuntime(1)
		w := rt.workers[0]
		var cur atomic.Pointer[Future[int]]
		var outside [rounds]error
		var settled atomic.Int32 // rounds the outside toucher has finished
		var quit atomic.Bool
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			for r := range outside {
				spin(func() bool { return cur.Load() != nil || quit.Load() })
				f := cur.Swap(nil)
				if f == nil {
					return
				}
				_, outside[r] = f.touchErr(nil)
				settled.Add(1)
			}
		}()
		defer func() { quit.Store(true); <-exited }()
		for r := 0; r < rounds; r++ {
			var f *Future[int]
			var running uint64
			f = SpawnWith(rt, w, ParentFirst, func(*W) int { running = f.status.Load(); return 7 })
			id := w.idNext
			cur.Store(f)
			for i := r; i > 0; i-- {
				f.Done()
			}
			_, err := f.touchErr(w)
			// Run what a losing touch left on the deque: the winner may be
			// asleep on it.
			for tk, fl := w.find(); tk != nil; tk, fl = w.find() {
				w.execCtx(tk, fl)
			}
			spin(func() bool { return settled.Load() > int32(r) })
			if (err == nil) == (outside[r] == nil) {
				t.Fatalf("round %d: touch errors %v, %v — want exactly one ErrDoubleTouch", r, err, outside[r])
			}
			if running != id<<idShift|stateRunning|stateTouched {
				t.Fatalf("round %d: the body saw the status word %#x, want ID %d running|touched", r, running, id)
			}
			wantWord(t, "raced touches", &f.task, id, stateDone|stateTouched)
		}
	})

	t.Run("cancelled on a closed runtime", func(t *testing.T) {
		rt := bareRuntime(1)
		w := rt.workers[0]
		queued := SpawnWith(rt, w, ParentFirst, sevenFn)
		id := w.idNext
		rt.closed.Store(true)
		late := SpawnWith(rt, w, ParentFirst, sevenFn) // cancelled inside the spawn
		w.drainCancelled()
		for i, f := range []*Future[int]{queued, late} {
			fid := id + uint64(i) // consecutive IDs from the worker's block
			wantWord(t, "cancelled", &f.task, fid, stateDone)
			if _, err := f.touchErr(nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("touch of a cancelled future: %v, want ErrClosed", err)
			}
			wantWord(t, "cancelled, then touched", &f.task, fid, stateDone|stateTouched)
		}
	})

	t.Run("recycled job root", func(t *testing.T) {
		rt := bareRuntime(1)
		rt.free = make([]poolableRoot, 0, rootFreelistCap)
		w := rt.workers[0]
		var prev *Future[int]
		for round := 0; round < 2; round++ {
			j, err := Submit(rt, sevenFn)
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && j.f != prev {
				t.Fatal("the second job did not get the first one's recycled root")
			}
			prev = j.f
			id := rt.taskSeq.Load() // the launch drew the last ID
			if j.js.root != id {
				t.Fatalf("round %d: job root ID %d, want %d", round, j.js.root, id)
			}
			wantWord(t, "launched", &j.f.task, id, stateCreated)
			if root := rt.popInjected(); root != &j.f.task || !w.execCtx(root, 0) {
				t.Fatalf("round %d: the job's root did not run", round)
			}
			if v := j.Wait(); v != 7 {
				t.Fatalf("round %d: job = %d, want 7", round, v)
			}
			wantWord(t, "recycled", &prev.task, 0, stateCreated)
		}
	})

	t.Run("widest ID", func(t *testing.T) {
		const widest = 1<<(64-idShift) - 1
		var tk task
		tk.setID(widest)
		wantWord(t, "set", &tk, widest, stateCreated)
		if !tk.claim() || !tk.spendTouch() {
			t.Fatal("claim or touch of a fresh task failed")
		}
		tk.complete()
		wantWord(t, "completed", &tk, widest, stateDone|stateTouched)
		if got := tk.id(); got != widest {
			t.Fatalf("id() = %d, want %d", got, widest)
		}
	})
}
