package experiments

import (
	"math/rand"

	"futurelocality/internal/runtime"
)

// The live workloads: the programs E9, E15 and E16 run on the real runtime
// and cmd/futureprof profiles by name. Each takes a leaf cost in spin units
// — 0 leaves the program's own arithmetic, which E9 times and checks; the
// profiled experiments pay a few microseconds per leaf so that thieves have
// time to act. examples/ keeps its own copies: those are documentation of
// the facade, not callers of this package.

// spin burns roughly `units` microseconds of CPU so profiled tasks are
// heavy enough for real stealing to happen (with no-op leaves the spawning
// worker drains its own deque faster than thieves can react, and every
// measured column degenerates to zero). spin(0) is 0.
func spin(units int) int {
	v := 0
	for i := 0; i < units*300; i++ {
		v = v*1664525 + 1013904223
	}
	return v
}

func fibSeq(n int) int {
	if n < 2 {
		return n
	}
	a, b := 0, 1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// FibFork selects how Fib forks its two recursive calls.
type FibFork int

const (
	// FibSpawn is help-first: Spawn the left call under the runtime's
	// default discipline (parent-first unless WithDiscipline says otherwise),
	// run the right one, touch.
	FibSpawn FibFork = iota
	// FibDive spawns with the per-spawn FutureFirst override: the worker
	// dives into every future at once, reproducing the sequential
	// future-first order exactly.
	FibDive
	// FibJoin is work-first Join2.
	FibJoin
)

// Fib is parallel Fibonacci: below cutoff (≥ 2 gives fib(n) exactly when
// leaf is 0) a leaf computes sequentially and pays the leaf cost, above it
// the two calls fork as fork says.
func Fib(rt *runtime.Runtime, w *runtime.W, fork FibFork, n, cutoff, leaf int) int {
	if n < cutoff {
		return fibSeq(n) + spin(leaf)
	}
	left := func(w *runtime.W) int { return Fib(rt, w, fork, n-1, cutoff, leaf) }
	if fork == FibJoin {
		a, b := runtime.Join2(rt, w, left,
			func(w *runtime.W) int { return Fib(rt, w, fork, n-2, cutoff, leaf) })
		return a + b
	}
	var f *runtime.Future[int]
	if fork == FibDive {
		f = runtime.SpawnWith(rt, w, runtime.FutureFirst, left)
	} else {
		f = runtime.Spawn(rt, w, left)
	}
	y := Fib(rt, w, fork, n-2, cutoff, leaf)
	return f.Touch(w) + y
}

// MapRows is the matmul-style map: n independent rows of leaf cost each,
// split by a balanced fork-join tree down to 4 rows per task.
func MapRows(rt *runtime.Runtime, w *runtime.W, n, leaf int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return runtime.Map(rt, w, xs, 4, func(_ *runtime.W, x int) int { return x * spin(leaf) })
}

// Pipeline is the Section 6.1 local-touch pattern: one producer stream of
// items, touched in order by the caller, each side paying leaf per item (so
// consumer work overlaps production). With leaf 0 it returns the XOR of
// i*31+7 over the items.
func Pipeline(rt *runtime.Runtime, w *runtime.W, items, leaf int) int {
	st := runtime.Produce(rt, w, items, func(_ *runtime.W, i int) int { return i*31 + 7 + spin(leaf) })
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= st.Get(w, i) + spin(leaf)
	}
	return acc
}

// PriorityTouches is the Figure 5(a) pattern: a batch of futures touched in
// an order chosen at run time (here: a seeded shuffle), impossible in strict
// fork-join but still structured single-touch.
func PriorityTouches(rt *runtime.Runtime, w *runtime.W, jobs, leaf int) int {
	futs := make([]*runtime.Future[int], jobs)
	for i := range futs {
		i := i
		futs[i] = runtime.Spawn(rt, w, func(_ *runtime.W) int { return i + spin(leaf*4) })
	}
	acc := 0
	for _, i := range rand.New(rand.NewSource(42)).Perm(jobs) {
		acc ^= futs[i].Touch(w)
	}
	return acc
}
