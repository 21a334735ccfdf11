package runtime

import (
	"errors"
	"math"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamInOrderConsumption(t *testing.T) {
	rt := newRT(t, 4)
	Run(rt, func(w *W) struct{} {
		st := Produce(rt, w, 100, func(_ *W, i int) int { return i * i })
		for i := 0; i < 100; i++ {
			if got := st.Get(w, i); got != i*i {
				t.Errorf("item %d = %d", i, got)
			}
		}
		return struct{}{}
	})
}

func TestStreamPipelinedOverlap(t *testing.T) {
	// The consumer takes item 0 while later items are still being produced.
	// The producer must be RUNNING on another worker before the first Get —
	// otherwise Get would inline the whole production (helping semantics)
	// and a production gate held by the consumer would deadlock, exactly as
	// the Stream doc warns. The started barrier forces the steal.
	rt := newRT(t, 2)
	gate := make(chan struct{})
	started := make(chan struct{})
	st := Produce(rt, nil, 8, func(_ *W, i int) int {
		if i == 0 {
			close(started)
		}
		if i == 5 {
			<-gate
		}
		return i
	})
	<-started // a worker is executing the producer now
	if got := st.Get(nil, 0); got != 0 {
		t.Errorf("item 0 = %d", got)
	}
	if st.Ready(6) {
		t.Error("item 6 ready while the gate is closed")
	}
	close(gate)
	if got := st.Get(nil, 7); got != 7 {
		t.Errorf("item 7 = %d", got)
	}
}

func TestStreamDoubleGetPanics(t *testing.T) {
	rt := newRT(t, 2)
	st := Produce(rt, nil, 3, func(_ *W, i int) int { return i })
	st.Get(nil, 1)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrDoubleTouch) {
			t.Fatalf("recovered %v", r)
		}
	}()
	st.Get(nil, 1)
}

func TestStreamOutOfOrderGets(t *testing.T) {
	// Consumption order is the consumer's choice (priority-queue style).
	rt := newRT(t, 2)
	st := Produce(rt, nil, 5, func(_ *W, i int) int { return i + 10 })
	for _, i := range []int{4, 0, 2, 1, 3} {
		if got := st.Get(nil, i); got != i+10 {
			t.Fatalf("item %d = %d", i, got)
		}
	}
}

func TestStreamProducerPanic(t *testing.T) {
	rt := newRT(t, 2)
	st := Produce(rt, nil, 10, func(_ *W, i int) int {
		if i == 4 {
			panic("producer died")
		}
		return i
	})
	// Items before the panic point remain consumable.
	for i := 0; i < 4; i++ {
		if got := st.Get(nil, i); got != i {
			t.Fatalf("item %d = %d", i, got)
		}
	}
	defer func() {
		if r := recover(); r != "producer died" {
			t.Fatalf("recovered %v", r)
		}
	}()
	st.Get(nil, 7)
}

func TestStreamInlineWhenUnclaimed(t *testing.T) {
	// Single worker, producer still in the deque: Get runs it inline.
	rt := newRT(t, 1)
	Run(rt, func(w *W) struct{} {
		st := Produce(rt, w, 4, func(_ *W, i int) int { return i })
		if got := st.Get(w, 3); got != 3 {
			t.Errorf("item 3 = %d", got)
		}
		return struct{}{}
	})
	if s := rt.Stats(); s.BlockedTouches != 0 {
		t.Fatalf("blocked touches = %d, want 0 (inline path)", s.BlockedTouches)
	}
}

func TestStreamReadyAndLen(t *testing.T) {
	rt := newRT(t, 2)
	release := make(chan struct{})
	st := Produce(rt, nil, 2, func(_ *W, i int) int {
		if i == 1 {
			<-release
		}
		return i
	})
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
	st.Get(nil, 0) // item 0 definitely produced after this returns
	if st.Ready(1) {
		t.Fatal("item 1 should not be ready")
	}
	close(release)
	if got := st.Get(nil, 1); got != 1 {
		t.Fatalf("item 1 = %d", got)
	}
	if !st.Ready(1) {
		t.Fatal("item 1 should be ready after production")
	}
}

func TestStreamEmpty(t *testing.T) {
	rt := newRT(t, 2)
	st := Produce(rt, nil, 0, func(_ *W, i int) int { return i })
	if st.Len() != 0 {
		t.Fatal("empty stream")
	}
}

func TestStreamChainedStages(t *testing.T) {
	// Two pipeline stages: stage 2 consumes stage 1's stream item by item —
	// the multi-stage pipeline of Section 6.1.
	rt := newRT(t, 4)
	const n = 50
	got := Run(rt, func(w *W) int {
		stage1 := Produce(rt, w, n, func(_ *W, i int) int { return i * 2 })
		stage2 := Produce(rt, w, n, func(w *W, i int) int { return stage1.Get(w, i) + 1 })
		sum := 0
		for i := 0; i < n; i++ {
			sum += stage2.Get(w, i)
		}
		return sum
	})
	want := 0
	for i := 0; i < n; i++ {
		want += i*2 + 1
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestStreamStressManyConsumers(t *testing.T) {
	// Items fan out to goroutines; each consumed exactly once overall.
	rt := newRT(t, 4)
	const n = 2000
	st := Produce(rt, nil, n, func(_ *W, i int) int { return i })
	var sum atomic.Int64
	done := make(chan struct{}, 4)
	for c := 0; c < 4; c++ {
		c := c
		go func() {
			for i := c; i < n; i += 4 {
				sum.Add(int64(st.Get(nil, i)))
			}
			done <- struct{}{}
		}()
	}
	for c := 0; c < 4; c++ {
		<-done
	}
	if sum.Load() != int64(n*(n-1)/2) {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// isErr reports whether the recovered panic value r is the error target.
func isErr(r any, target error) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, target)
}

// TestStreamStressRacingGets: goroutines race to Get every item of one
// stream in the same order, so they meet at the production frontier, install
// the stream's gate while the producer takes it out, and wake together at
// each item; each item is won exactly once, and every other Get of it panics
// with ErrDoubleTouch. A gate install that hands back the empty slot after
// losing its CAS (see Stream.waitAt) fails here in a few runs in a hundred.
func TestStreamStressRacingGets(t *testing.T) {
	rt := newRT(t, 2)
	const n, racers = 2000, 8
	st := Produce(rt, nil, n, func(_ *W, i int) int {
		stdruntime.Gosched() // keep the frontier slow enough to gather the racers
		return i
	})
	var won [racers][]int
	done := make(chan struct{}, racers)
	for c := 0; c < racers; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < n; i++ {
				func() {
					defer func() {
						if r := recover(); r != nil && !isErr(r, ErrDoubleTouch) {
							t.Errorf("Get(%d) recovered %v", i, r)
						}
					}()
					if v := st.Get(nil, i); v != i {
						t.Errorf("item %d = %d", i, v)
					}
					won[c] = append(won[c], i)
				}()
			}
		}(c)
	}
	for c := 0; c < racers; c++ {
		<-done
	}
	count := make([]int, n)
	for c := range won {
		for _, i := range won[c] {
			count[i]++
		}
	}
	for i, k := range count {
		if k != 1 {
			t.Fatalf("item %d won %d times, want exactly once", i, k)
		}
	}
}

// TestStreamIndexOutOfRange: Get and Ready refuse an index outside the
// stream before they spend a latch or read an item, and every item is still
// there to be consumed afterwards. Produce refuses a length outside
// [0, MaxInt32].
func TestStreamIndexOutOfRange(t *testing.T) {
	rt := newRT(t, 2)
	const n = 4
	st := Produce(rt, nil, n, func(_ *W, i int) int { return i + 1 })
	for _, i := range []int{-1, n} {
		for name, call := range map[string]func(){
			"Get":   func() { st.Get(nil, i) },
			"Ready": func() { st.Ready(i) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, i)
					}
				}()
				call()
			}()
		}
	}
	for i := 0; i < n; i++ {
		if got := st.Get(nil, i); got != i+1 {
			t.Fatalf("item %d = %d, want %d", i, got, i+1)
		}
	}
	// An index must fit a trace event's int32, so the length does too.
	tooLong := int64(math.MaxInt32) + 1
	for _, l := range []int{-1, int(tooLong)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Produce(n=%d) did not panic", l)
				}
			}()
			Produce(rt, nil, l, func(_ *W, i int) int { return i })
		}()
	}
}

// streamConsumers blocks four external goroutines and one worker on the
// distinct items of st named by at (the worker takes the last) and returns
// one channel per consumer carrying its value or its panic. It returns once
// the worker is asleep at the stream's gate; the external consumers called
// Get before the worker was given its task, and the checks that follow hold
// whether or not they are asleep yet. The producer must be running already,
// on the runtime's other worker.
func streamConsumers(t *testing.T, rt *Runtime, st *Stream[int], at [5]int) [5]chan any {
	t.Helper()
	var out [5]chan any
	for c := range out {
		out[c] = make(chan any, 1)
	}
	calling := make(chan struct{}, 4)
	for c := 0; c < 4; c++ {
		go func(c int) {
			defer func() {
				if r := recover(); r != nil {
					out[c] <- r
				}
			}()
			calling <- struct{}{}
			out[c] <- st.Get(nil, at[c])
		}(c)
	}
	for c := 0; c < 4; c++ {
		<-calling
	}
	blockedBefore := rt.Stats().BlockedTouches
	f := Spawn(rt, nil, func(w *W) int { return st.Get(w, at[4]) })
	go func() {
		v, err := f.touchErr(nil)
		var pe *PanicError
		if errors.As(err, &pe) {
			out[4] <- pe.Value
			return
		}
		if err != nil {
			out[4] <- err
			return
		}
		out[4] <- v
	}()
	waitUntil(func() bool { return rt.Stats().BlockedTouches > blockedBefore })
	return out
}

// TestStreamBlockedConsumersWake: consumers asleep on distinct unproduced
// items of one stream share its one gate. Each publication wakes them all;
// each returns only once its own item is published, with that item's value.
// When the producer panics at item k instead, every consumer blocked at or
// beyond k wakes with the panic value, and the items before k are served.
func TestStreamBlockedConsumersWake(t *testing.T) {
	t.Run("released", func(t *testing.T) {
		rt := newRT(t, 2)
		const n = 8
		at := [5]int{2, 3, 5, 6, 7}
		started, step := make(chan struct{}), make(chan struct{})
		t.Cleanup(func() { close(step) }) // a failed check must not leave the producer waiting
		st := Produce(rt, nil, n, func(_ *W, i int) int {
			if i == 0 {
				close(started)
			}
			<-step
			return 10*i + 1
		})
		<-started
		out := streamConsumers(t, rt, st, at)
		for i := 0; i < n; i++ {
			step <- struct{}{}
			for c, j := range at {
				switch {
				case j == i:
					if got := <-out[c]; got != 10*j+1 {
						t.Fatalf("consumer of item %d got %v, want %d", j, got, 10*j+1)
					}
				case j > i:
					// The producer waits at step before item i+1: nobody
					// further on may have returned.
					select {
					case got := <-out[c]:
						t.Fatalf("consumer of item %d returned %v with %d items produced", j, got, i+1)
					default:
					}
				}
			}
		}
	})
	t.Run("panic", func(t *testing.T) {
		rt := newRT(t, 2)
		const n, k = 10, 4
		at := [5]int{4, 5, 6, 7, 9}
		started, step := make(chan struct{}), make(chan struct{})
		t.Cleanup(func() { close(step) }) // a failed check must not leave the producer waiting
		st := Produce(rt, nil, n, func(_ *W, i int) int {
			if i == 0 {
				close(started)
			}
			<-step
			if i == k {
				panic("producer died")
			}
			return 10*i + 1
		})
		<-started
		out := streamConsumers(t, rt, st, at)
		for i := 0; i <= k; i++ {
			step <- struct{}{}
		}
		for c, j := range at {
			if got := <-out[c]; got != "producer died" {
				t.Errorf("consumer of item %d got %v, want the producer's panic", j, got)
			}
		}
		for i := 0; i < k; i++ {
			if got := st.Get(nil, i); got != 10*i+1 {
				t.Errorf("item %d = %d, want %d", i, got, 10*i+1)
			}
		}
	})
}

// TestStreamCancelledWakesBlockedConsumers: a stream still queued when the
// runtime shuts down is cancelled, and a consumer already asleep on one of
// its items wakes with ErrClosed instead of hanging.
func TestStreamCancelledWakesBlockedConsumers(t *testing.T) {
	rt := New(WithWorkers(1))
	block, running := make(chan struct{}), make(chan struct{})
	busy := Spawn(rt, nil, func(*W) int { close(running); <-block; return 1 })
	<-running
	// The lone worker is busy; the producer sits in the global queue.
	st := Produce(rt, nil, 4, func(_ *W, i int) int { return i })
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		st.Get(nil, 2)
	}()
	waitUntil(func() bool { return st.gate.Load() != nil })

	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	for !rt.Closed() {
		time.Sleep(time.Millisecond)
	}
	close(block)
	<-done
	if r := <-got; !isErr(r, ErrClosed) {
		t.Fatalf("blocked Get recovered %v, want ErrClosed", r)
	}
	if v, err := busy.touchErr(nil); err != nil || v != 1 {
		t.Fatalf("busy task: v=%d err=%v", v, err)
	}
}
