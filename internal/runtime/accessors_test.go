package runtime

// Accessors and combinators only the tests use.

import "futurelocality/internal/profile"

// Done reports whether the future has completed (without touching it).
func (f *Future[T]) Done() bool {
	return f.isDone()
}

// TryTouch consumes the future only if it has already completed; ok
// reports whether the value was taken. A successful TryTouch counts as the
// single touch (a later Touch panics); an unsuccessful one does not. This
// supports opportunistic consumption patterns — e.g. draining whichever
// futures of a batch are ready before blocking on the rest — while keeping
// the discipline intact. w is the calling worker (nil for external
// goroutines) and determines which context the touch is attributed to in
// profiling traces.
func (f *Future[T]) TryTouch(w *W) (v T, ok bool) {
	if !f.isDone() {
		return v, false
	}
	if !f.spendTouch() {
		panic(ErrDoubleTouch)
	}
	f.job.rt.recordTouch(w, &f.task, profile.ModeReady, 0, -1)
	return f.finish(), true
}

// Closed reports whether the runtime has been shut down (explicitly or by
// context cancellation). Spawns on a closed runtime fail fast: their
// futures complete with ErrClosed.
func (rt *Runtime) Closed() bool { return rt.closed.Load() }

// Discipline returns the runtime-wide default fork discipline (see
// WithDiscipline).
func (rt *Runtime) Discipline() Discipline { return rt.discipline }

// Len returns the stream length.
func (s *Stream[T]) Len() int { return len(s.vals) }

// Ready reports whether item i has been produced (without consuming it).
func (s *Stream[T]) Ready(i int) bool {
	s.checkIndex(i)
	return s.readyAt(int32(i))
}

// JoinN evaluates fns in parallel and returns their results in order. The
// calling worker runs the first function itself (future-thread-first) and
// exposes the rest for theft; each spawned future is touched exactly once.
// An empty input returns an empty slice.
func JoinN[T any](rt *Runtime, w *W, fns ...func(*W) T) []T {
	out := make([]T, len(fns))
	switch len(fns) {
	case 0:
		return out
	case 1:
		out[0] = fns[0](w)
		return out
	}
	futs := make([]*Future[T], len(fns)-1)
	for i := len(fns) - 1; i >= 1; i-- {
		futs[i-1] = SpawnWith(rt, w, ParentFirst, fns[i]) // the pushed continuations
	}
	out[0] = fns[0](w)
	// Touch in reverse spawn order: the most recently pushed future is the
	// one most likely still in our own deque (popped back inline).
	for i := 1; i < len(fns); i++ {
		out[i] = futs[i-1].wait(w)
	}
	return out
}

// Reduce folds xs with an associative combiner in parallel: pairs are
// combined in a balanced tree, so the result is deterministic for
// associative op regardless of scheduling. zero is returned for empty
// input.
func Reduce[T any](rt *Runtime, w *W, xs []T, grain int, zero T, op func(T, T) T) T {
	if len(xs) == 0 {
		return zero
	}
	if grain < 1 {
		grain = 1
	}
	var rec func(w *W, lo, hi int) T
	rec = func(w *W, lo, hi int) T {
		if hi-lo <= grain {
			acc := xs[lo]
			for i := lo + 1; i < hi; i++ {
				acc = op(acc, xs[i])
			}
			return acc
		}
		mid := (lo + hi) / 2
		a, b := Join2(rt, w,
			func(w *W) T { return rec(w, lo, mid) },
			func(w *W) T { return rec(w, mid, hi) },
		)
		return op(a, b)
	}
	return rec(w, 0, len(xs))
}

// Done reports whether the job has completed (without consuming the result).
func (j *Job[T]) Done() bool {
	if j.consumed {
		return true
	}
	return j.f.Done()
}

// TryWait consumes the result only if the job has already completed; ok
// reports whether it was taken. An unsuccessful TryWait does not spend the
// single consume.
func (j *Job[T]) TryWait() (v T, ok bool) {
	if j.consumed || j.stale() {
		panic(ErrDoubleTouch)
	}
	v, ok = j.f.TryTouch(nil)
	if ok {
		j.settle()
	}
	return v, ok
}
