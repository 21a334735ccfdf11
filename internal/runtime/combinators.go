package runtime

// Parallel combinators built on the work-first (future-first) discipline:
// every helper below forks futures, dives into one branch immediately, and
// touches each future exactly once — so user code composed from them is a
// structured single-touch computation by construction, the class Theorem 8
// guarantees locality for. They realize the discipline structurally (via
// the SpawnWith/Join2 primitive, pushing the explicit continuation
// closures and diving into the first branch), so the runtime-wide default
// set by WithDiscipline does not change their schedule.

// Map applies fn to every element of xs in parallel (divide and conquer
// with Join2, so the computation is a balanced fork-join tree) and returns
// the results in order. grain is the sequential cutoff; grain < 1 means 1.
func Map[T, U any](rt *Runtime, w *W, xs []T, grain int, fn func(*W, T) U) []U {
	if grain < 1 {
		grain = 1
	}
	out := make([]U, len(xs))
	var rec func(w *W, lo, hi int)
	rec = func(w *W, lo, hi int) {
		if hi-lo <= grain {
			for i := lo; i < hi; i++ {
				out[i] = fn(w, xs[i])
			}
			return
		}
		mid := (lo + hi) / 2
		Join2(rt, w,
			func(w *W) struct{} { rec(w, lo, mid); return struct{}{} },
			func(w *W) struct{} { rec(w, mid, hi); return struct{}{} },
		)
	}
	rec(w, 0, len(xs))
	return out
}

// ForEach runs fn for every index in [0, n) in parallel with the given
// grain.
func ForEach(rt *Runtime, w *W, n, grain int, fn func(*W, int)) {
	if grain < 1 {
		grain = 1
	}
	var rec func(w *W, lo, hi int)
	rec = func(w *W, lo, hi int) {
		if hi-lo <= grain {
			for i := lo; i < hi; i++ {
				fn(w, i)
			}
			return
		}
		mid := (lo + hi) / 2
		Join2(rt, w,
			func(w *W) struct{} { rec(w, lo, mid); return struct{}{} },
			func(w *W) struct{} { rec(w, mid, hi); return struct{}{} },
		)
	}
	if n > 0 {
		rec(w, 0, n)
	}
}
