package runtime

import (
	"fmt"
	"sync/atomic"

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
// Like Future, a Stream IS its producer task (the task is embedded), and
// each cell carries an atomic completion word instead of a channel — so
// Produce costs two allocations (the Stream and the cell array) however
// long the stream is, and a Get of a produced item is one atomic load.
//
// Helping caveat: a worker Get on a not-yet-started producer runs the WHOLE
// production inline (the same work-first helping as Future.Touch). Producer
// functions must therefore never wait on actions the consumer takes between
// its Gets — with futures that discipline is natural (items depend on
// inputs, not on consumption), and it is exactly what Definition 3 assumes:
// the future thread's values depend only on nodes before the touches.
type Stream[T any] struct {
	task
	rt    *Runtime
	cells []streamCell[T]
	fn    func(*W, int) T
	// panicAt is the first index NOT produced when the producer panicked
	// (len(cells) when it completed normally); panicVal is the panic value,
	// published before panicAt is stored.
	panicAt  atomic.Int64
	panicVal any
}

type streamCell[T any] struct {
	comp  completion
	value T
}

// runTask implements taskRunner: it is the producer body, computing every
// cell in order and publishing each through its completion word.
func (s *Stream[T]) runTask(wk *W, cancelled bool) {
	n := len(s.cells)
	if cancelled {
		s.panicVal = ErrClosed
		s.panicAt.Store(0)
		for i := range s.cells {
			s.cells[i].comp.complete()
		}
		return
	}
	next := 0
	defer func() {
		if r := recover(); r != nil {
			s.panicVal = r
			s.panicAt.Store(int64(next))
		}
		// Release every remaining cell so blocked consumers wake and
		// observe the panic point.
		for ; next < n; next++ {
			s.cells[next].comp.complete()
		}
	}()
	for ; next < n; next++ {
		s.cells[next].value = s.fn(wk, next)
		// Record the yield before publishing the item, so a consumer's
		// touch of item i is always causally after yield i in the trace.
		if wk.rt.recording() {
			wk.record(profile.Event{Kind: profile.KindYield, Task: wk.cur, Arg: int32(next), Job: s.jobID()})
		}
		s.cells[next].comp.complete()
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
func Produce[T any](rt *Runtime, w *W, n int, fn func(*W, int) T) *Stream[T] {
	if n < 0 {
		panic(fmt.Sprintf("runtime: Produce(n=%d)", n))
	}
	s := &Stream[T]{rt: rt, cells: make([]streamCell[T], n), fn: fn}
	s.panicAt.Store(int64(n))
	s.runner = s
	// A pipeline stage inside a job belongs to the job, like any spawn.
	if rt.adopt(w, &s.task, ParentFirst) {
		rt.push(w, &s.task)
	}
	return s
}

// Len returns the stream length.
func (s *Stream[T]) Len() int { return len(s.cells) }

// Ready reports whether item i has been produced (without consuming it).
func (s *Stream[T]) Ready(i int) bool {
	return s.cells[i].comp.isDone()
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
	c := &s.cells[i]
	if c.comp.touched.Swap(true) {
		panic(ErrDoubleTouch)
	}
	// Fast path.
	if c.comp.isDone() {
		s.recordGet(w, i, profile.ModeReady)
		return s.finish(c, i)
	}
	// Inline path: run the whole producer on this worker (the inline credit
	// is applied inside run, within the producer's job-liveness window). The
	// producer task's own touched bit is never used: each cell has its latch.
	if w != nil && w.runInline(&s.task, s.rt, 0) {
		s.recordGet(w, i, profile.ModeInline)
		return s.finish(c, i)
	}
	if w == nil {
		c.comp.waitDone()
		s.recordGet(w, i, profile.ModeExternal)
		return s.finish(c, i)
	}
	w.helpUntil(&s.task, &c.comp, int32(i))
	return s.finish(c, i)
}

// recordGet records the touch of stream item i (the single touch of the
// i-th future the producer thread computes, in the paper's model).
func (s *Stream[T]) recordGet(w *W, i int, mode profile.TouchMode) {
	if w != nil {
		w.recordTouch(s.id(), mode, 0, int32(i))
		return
	}
	s.rt.recordExternalTouch(&s.task, profile.ModeExternal, int32(i))
}

func (s *Stream[T]) finish(c *streamCell[T], i int) T {
	c.comp.waitDone()
	if int64(i) >= s.panicAt.Load() {
		// Item i was never produced: the producer panicked first. Items
		// before the panic point remain consumable.
		panic(s.panicVal)
	}
	return c.value
}
