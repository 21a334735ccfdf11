package runtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"futurelocality/internal/profile"
)

// Stream is the runtime counterpart of the paper's local-touch pipelines
// (Definition 3, Section 6.1, after Blelloch & Reid-Miller's "pipelining
// with futures"): ONE producer task computes a sequence of values, each of
// which becomes consumable as soon as it is produced, and the consumer
// takes them in order — a future thread evaluating multiple futures, each
// touched exactly once by the thread that created the stream.
//
//	st := runtime.Produce(rt, w, n, func(w *W, i int) Item { ... })
//	for i := 0; i < n; i++ {
//	    item := st.Get(w, i)   // blocks only if item i is not produced yet
//	    consume(item)          // overlaps with production of items > i
//	}
//
// Each slot is consumable exactly once (the single-touch discipline per
// future); a second Get of the same index panics with ErrDoubleTouch.
//
// Like Future, a Stream IS its producer task (the task is embedded). The
// items are dense — the values in one array, the single-touch latches one
// bit each in another — because one producer publishes them strictly in
// order: a single produced count says which are ready, and a single wait
// gate serves every blocked consumer whatever item it waits for. So Produce
// costs three allocations however long the stream is (4 304 bytes for 512
// ints), a Get of a produced item is one
// atomic load and one locked instruction on its latch word, and a consumer
// reads eight int items per cache line.
//
// Helping caveat: a worker Get on a not-yet-started producer runs the WHOLE
// production inline (the same work-first helping as Future.Touch). Producer
// functions must therefore never wait on actions the consumer takes between
// its Gets — with futures that discipline is natural (items depend on
// inputs, not on consumption), and it is exactly what Definition 3 assumes:
// the future thread's values depend only on nodes before the touches.
type Stream[T any] struct {
	task
	rt   *Runtime
	vals []T
	// touched holds the single-touch latches, bit i%32 of word i/32 for
	// item i (see spend). A bit, not a byte: sync/atomic has no 8-bit
	// exchange, and an atomic.Bool takes four bytes.
	touched []atomic.Uint32
	fn      func(*W, int) T
	// produced is the number of items published: item i is ready once
	// produced > i. Only the producer writes it, and it only grows, to
	// len(vals) at the latest (see publish).
	produced atomic.Int64
	// panicAt is the first index NOT produced when the producer panicked
	// (len(vals) when it completed normally); panicVal is the panic value.
	// Both are written before produced reaches len(vals).
	panicAt  atomic.Int64
	panicVal any
	// gate is what blocked consumers sleep on, nil until one blocks after a
	// publish (see waitGate).
	gate atomic.Pointer[waitGate]
}

// waitGate is what a stream's blocked consumers sleep on. A stream is the
// one object of the runtime with several possible waiters at once — each
// consumer waiting for an item — so its producer wakes them all by closing
// the gate, where every other sleeper waits on its own slot.
type waitGate struct{ ch chan struct{} }

// streamBody is the body of a Stream[T]'s producer task. It carries nothing:
// the producer function is a field of the stream, and an empty value in
// task.body allocates nothing.
type streamBody[T any] struct{}

// runTask implements taskBody: it is the producer body of the stream whose
// task is t, computing every item in order and publishing each through the
// produced count. t is at offset 0 of its Stream[T] (TestTaskAtOffsetZero).
func (streamBody[T]) runTask(t *task, wk *W, cancelled bool) {
	s := (*Stream[T])(unsafe.Pointer(t))
	n := len(s.vals)
	if cancelled {
		s.panicVal = ErrClosed
		s.panicAt.Store(0)
		s.publish(n)
		return
	}
	next := 0
	defer func() {
		if r := recover(); r != nil {
			s.panicVal = r
			s.panicAt.Store(int64(next))
		}
		// Release every remaining item so blocked consumers wake and observe
		// the panic point.
		if next < n {
			s.publish(n)
		}
	}()
	for ; next < n; next++ {
		s.vals[next] = s.fn(wk, next)
		// Record the yield before publishing the item, so a consumer's
		// touch of item i is always causally after yield i in the trace.
		if wk.rt.recording() {
			wk.rt.emit(wk, profile.Event{Kind: profile.KindYield, Task: wk.cur, Arg: int32(next), Job: s.jobID()})
		}
		s.publish(next + 1)
	}
}

// publish makes the items below n ready and wakes the consumers blocked on
// the stream's gate. The slot handshake of a task, with a count in place of
// the done bit and a gate in place of the slot: the store to produced
// precedes the gate load here, and a waiter's gate install precedes its load
// of produced (waitAt), so either this load sees the waiter's gate or the
// waiter sees the new count. A gate is taken out before it is closed, so the
// next waiter installs a fresh one; the waiters on items still unproduced
// wake and sleep again. Only the producer takes a gate out, so the Swap
// returns the gate just loaded.
func (s *Stream[T]) publish(n int) {
	s.produced.Store(int64(n))
	if s.gate.Load() != nil {
		close(s.gate.Swap(nil).ch)
	}
}

// readyAt implements awaited: item i has been published.
func (s *Stream[T]) readyAt(i int32) bool { return s.produced.Load() > int64(i) }

// waitAt implements awaited: it blocks until item i is published, on the
// stream's gate, not on the caller's slot. A consumer that finds no gate
// installs one; all agree on one gate. The producer takes the gate out again
// (publish), so a lost install is followed by another look, which may find
// the word empty once more.
func (s *Stream[T]) waitAt(i int32, _ *slot) {
	for !s.readyAt(i) {
		g := s.gate.Load()
		if g == nil {
			g = &waitGate{ch: make(chan struct{})}
			if !s.gate.CompareAndSwap(nil, g) {
				continue
			}
		}
		if !s.readyAt(i) {
			<-g.ch
		}
	}
}

// Produce starts a producer task computing n items with fn, preferring the
// caller's deque (w may be nil). The producer runs as a single task — the
// "future thread computing multiple futures" of Definition 3 — so stealing
// it moves the whole pipeline stage, never individual items. The producer
// is always spawned help-first (ParentFirst) regardless of the runtime
// default: diving into it would run the whole production before Produce
// returns, destroying the production/consumption overlap that is the point
// of a pipeline. On a closed runtime every item fails fast with ErrClosed.
// n is at most math.MaxInt32, the range of an item index in a trace event.
func Produce[T any](rt *Runtime, w *W, n int, fn func(*W, int) T) *Stream[T] {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("runtime: Produce(n=%d)", n))
	}
	s := &Stream[T]{task: task{body: streamBody[T]{}}, rt: rt, vals: make([]T, n),
		touched: make([]atomic.Uint32, (n+31)/32), fn: fn}
	s.panicAt.Store(int64(n))
	// A pipeline stage inside a job belongs to the job, like any spawn.
	if rt.adopt(w, &s.task, ParentFirst) {
		rt.push(w, &s.task)
	}
	return s
}

// checkIndex panics unless i is an item of the stream. It compares with the
// length and reads no item: vals[i] may be being written by the producer.
func (s *Stream[T]) checkIndex(i int) {
	if uint(i) >= uint(len(s.vals)) {
		panic(fmt.Sprintf("runtime: Stream index %d out of range [0:%d]", i, len(s.vals)))
	}
}

// Get consumes item i, blocking until it is produced. Each index may be
// consumed exactly once; a second Get(i) panics with ErrDoubleTouch. If the
// producer panicked before item i was produced, Get re-raises that panic.
//
// A worker whose item is not ready first tries to run the producer inline
// (if nobody started it), then helps with other tasks, then polls, then
// blocks — the escalation of Future.Touch, and past the inline attempt the
// same code (W.helpUntil).
func (s *Stream[T]) Get(w *W, i int) T {
	s.checkIndex(i)
	if !s.spend(i) {
		panic(ErrDoubleTouch)
	}
	// Fast path.
	if s.readyAt(int32(i)) {
		s.recordGet(w, i, profile.ModeReady)
		return s.finish(i)
	}
	// Inline path: run the whole producer on this worker (the inline credit
	// is applied inside run, within the producer's job-liveness window). The
	// producer task's own touched bit is never used: each item has its latch.
	if w != nil && w.runInline(&s.task, 0) {
		s.recordGet(w, i, profile.ModeInline)
		return s.finish(i)
	}
	if w == nil {
		s.waitAt(int32(i), nil)
		s.recordGet(w, i, profile.ModeExternal)
		return s.finish(i)
	}
	w.helpUntil(&s.task, s, int32(i))
	return s.finish(i)
}

// spend sets item i's single-touch latch and reports whether this call was
// the one that spent it. The first try assumes in-order consumption — every
// earlier item of the latch word spent, no later one — and is then a single
// CAS with no load before it; otherwise Or, whose old bit decides.
func (s *Stream[T]) spend(i int) bool {
	u := uint(i)
	word, bit := &s.touched[u/32], uint32(1)<<(u%32)
	return word.CompareAndSwap(bit-1, bit|(bit-1)) || word.Or(bit)&bit == 0
}

// recordGet records the touch of stream item i (the single touch of the
// i-th future the producer thread computes, in the paper's model). The
// recording check comes first, so an unrecorded worker Get makes no call.
func (s *Stream[T]) recordGet(w *W, i int, mode profile.TouchMode) {
	if w == nil {
		s.rt.recordTouch(nil, &s.task, profile.ModeExternal, 0, int32(i))
	} else if w.rt.recording() {
		w.rt.recordTouch(w, &s.task, mode, 0, int32(i))
	}
}

// finish returns item i, which has been published, or re-raises the
// producer's panic if the producer stopped before item i.
func (s *Stream[T]) finish(i int) T {
	if int64(i) >= s.panicAt.Load() {
		// Item i was never produced: the producer panicked first. Items
		// before the panic point remain consumable.
		panic(s.panicVal)
	}
	return s.vals[i]
}
