package runtime

import (
	"errors"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// ErrClosed: fail-fast spawns and cancellation instead of hangs.

func TestSpawnAfterShutdownFailsFast(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Shutdown()
	if !rt.Closed() {
		t.Fatal("Closed() = false after Shutdown")
	}

	// The old runtime enqueued onto the global queue with zero live workers
	// and a subsequent Touch(nil) blocked forever. Now the future completes
	// immediately with ErrClosed.
	f := Spawn(rt, nil, func(*W) int { return 1 })
	if !f.Done() {
		t.Fatal("spawn on a closed runtime must complete immediately")
	}
	if _, err := f.touchErr(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("TouchErr = %v, want ErrClosed", err)
	}

	g := Spawn(rt, nil, func(*W) int { return 2 })
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("Touch recovered %v, want ErrClosed", r)
			}
		}()
		g.Touch(nil)
	}()
}

func TestConcurrentShutdownWaitsForQuiescence(t *testing.T) {
	// A Shutdown racing another must not return before the runtime
	// quiesced.
	rt := New(WithWorkers(2))
	block := make(chan struct{})
	running := make(chan struct{})
	f := Spawn(rt, nil, func(*W) int { close(running); <-block; return 1 })
	<-running

	first := make(chan struct{})
	go func() { rt.Shutdown(); close(first) }()
	for !rt.Closed() {
		time.Sleep(time.Millisecond)
	}
	second := make(chan struct{})
	go func() { rt.Shutdown(); close(second) }()

	select {
	case <-second:
		t.Fatal("duplicate Shutdown returned while a task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	<-first
	<-second
	if v, err := f.touchErr(nil); err != nil || v != 1 {
		t.Fatalf("task result after shutdown: v=%d err=%v", v, err)
	}
}

func TestRunErrOnClosedRuntime(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	if _, err := RunErr(rt, func(*W) int { return 42 }); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunErr on closed runtime = %v, want ErrClosed", err)
	}
}

func TestProduceAfterShutdownFailsFast(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Shutdown()
	st := Produce(rt, nil, 3, func(_ *W, i int) int { return i })
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("Get recovered %v, want ErrClosed", r)
			}
		}()
		st.Get(nil, 0)
	}()
}

func TestShutdownCancelsQueuedTasks(t *testing.T) {
	// A task still queued when the runtime shuts down must fail its future
	// with ErrClosed rather than strand a toucher.
	rt := New(WithWorkers(1))
	block := make(chan struct{})
	running := make(chan struct{})
	busy := Spawn(rt, nil, func(*W) int { close(running); <-block; return 1 })
	<-running
	// The lone worker is busy; this task sits in the global queue.
	queued := Spawn(rt, nil, func(*W) int { return 2 })

	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	// closed is set first thing in Shutdown; once visible, the worker can
	// no longer claim the queued task after finishing the busy one.
	for !rt.Closed() {
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done

	v, err := busy.touchErr(nil)
	if err != nil || v != 1 {
		t.Fatalf("running task: v=%d err=%v, want 1, nil", v, err)
	}
	if _, err := queued.touchErr(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued task: err=%v, want ErrClosed", err)
	}
}

// ---------------------------------------------------------------------------
// Panic propagation: TouchErr returns the error, Touch re-panics the
// original value — externally, inside Scope, and via JoinN.

var errBoom = errors.New("boom-sentinel")

func TestTouchErrReturnsTaskError(t *testing.T) {
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { panic(errBoom) })
	_, err := f.touchErr(nil)
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("TouchErr = %v, want wrapped errBoom", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != error(errBoom) {
		t.Fatalf("TouchErr did not wrap the original panic value: %v", err)
	}
}

func TestTouchErrNonErrorPanic(t *testing.T) {
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { panic("just a string") })
	_, err := f.touchErr(nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "just a string" {
		t.Fatalf("TouchErr = %v, want PanicError{just a string}", err)
	}
}

func TestTouchErrDoubleTouch(t *testing.T) {
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { return 1 })
	if _, err := f.touchErr(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.touchErr(nil); !errors.Is(err, ErrDoubleTouch) {
		t.Fatalf("second TouchErr = %v, want ErrDoubleTouch", err)
	}
}

func TestPanicTouchedByExternalGoroutine(t *testing.T) {
	// The future is created inside the worker pool but touched by an
	// external goroutine: the panic must cross the pool boundary intact.
	rt := newRT(t, 2)
	ch := make(chan *Future[int], 1)
	Run(rt, func(w *W) struct{} {
		ch <- Spawn(rt, w, func(*W) int { panic(errBoom) })
		return struct{}{}
	})
	f := <-ch
	if _, err := f.touchErr(nil); !errors.Is(err, errBoom) {
		t.Fatalf("external TouchErr = %v, want errBoom", err)
	}
}

func TestPanicInsideScopeRepanicsOriginal(t *testing.T) {
	rt := newRT(t, 2)
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(rt, func(w *W) struct{} {
			Scope(rt, w, func(s *Sync) {
				s.Go(func(*W) { panic(errBoom) })
			})
			return struct{}{}
		})
		return nil
	}()
	err, ok := got.(error)
	if !ok || !errors.Is(err, errBoom) {
		t.Fatalf("scope end re-panicked %v, want errBoom", got)
	}
}

func TestPanicViaJoinNRepanicsOriginal(t *testing.T) {
	rt := newRT(t, 2)
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(rt, func(w *W) struct{} {
			JoinN(rt, w,
				func(*W) int { return 1 },
				func(*W) int { panic(errBoom) },
				func(*W) int { return 3 },
			)
			return struct{}{}
		})
		return nil
	}()
	err, ok := got.(error)
	if !ok || !errors.Is(err, errBoom) {
		t.Fatalf("JoinN re-panicked %v, want errBoom", got)
	}
}

func TestTouchStillRepanicsOriginalValue(t *testing.T) {
	// The panic surface is unchanged: Touch delivers the original value,
	// not a wrapped error.
	rt := newRT(t, 2)
	f := Spawn(rt, nil, func(*W) int { panic("raw-value") })
	defer func() {
		if r := recover(); r != "raw-value" {
			t.Fatalf("Touch re-panicked %v, want raw-value", r)
		}
	}()
	f.Touch(nil)
}
