package main

import (
	"sort"
	"sync/atomic"
	"time"

	rt "futurelocality/internal/runtime"
)

// The computations the workloads run. Each parallel kernel has a plain
// sequential twin: the twin gives the reference result every run is checked
// against, and the baseline for runtime.overhead_vs_seq. Kernels reach the
// runtime through w.Runtime(), so the same closure runs under Run, under
// Submit on one runtime and under a pool shard.

// xorshift is the benchmark's own seeded generator: inputs are a pure
// function of -seed and never of the clock or of math/rand's global state.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// rng is a seeded stream over xorshift. The zero seed is remapped because
// xorshift has 0 as a fixed point.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	s := uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9
	if s == 0 {
		s = 0x2545f4914f6cdd1d
	}
	r := &rng{s: s}
	for i := 0; i < 4; i++ {
		r.next()
	}
	return r
}

func (r *rng) next() uint64 { r.s = xorshift(r.s); return r.s }

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return float64(r.next()>>11+1) / (1 << 53) }

// busyClock sums, per worker, the time spent inside the kernels' leaf
// bodies. Only the traced run carries one; W x wall minus the busy total is
// then what the scheduler itself cost. A nil clock does nothing, which is
// the untraced run.
type busyClock struct {
	perWorker []paddedNs
}

type paddedNs struct {
	ns atomic.Int64
	_  [56]byte // one cache line per worker, so stamping does not share lines
}

func newBusyClock(workers int) *busyClock {
	return &busyClock{perWorker: make([]paddedNs, workers)}
}

func (b *busyClock) start() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

func (b *busyClock) stop(w *rt.W, t0 time.Time) {
	if b != nil {
		b.perWorker[w.ID()].ns.Add(int64(time.Since(t0)))
	}
}

func (b *busyClock) total() time.Duration {
	var ns int64
	for i := range b.perWorker {
		ns += b.perWorker[i].ns.Load()
	}
	return time.Duration(ns)
}

func fibIter(n int) int {
	if n < 2 {
		return n
	}
	a, b := 0, 1
	for i := 2; i <= n; i++ {
		a, b = b, a+b
	}
	return b
}

// fibSeq is fib with the fork structure kept and the futures removed.
func fibSeq(n, cutoff int) int {
	if n < cutoff {
		return fibIter(n)
	}
	return fibSeq(n-1, cutoff) + fibSeq(n-2, cutoff)
}

// fib is the creator-touch fork-join kernel: below the cutoff a leaf is a
// few nanoseconds of arithmetic, so a task is almost pure scheduler cost.
func fib(w *rt.W, bc *busyClock, n, cutoff int) int {
	if n < cutoff {
		t0 := bc.start()
		v := fibIter(n)
		bc.stop(w, t0)
		return v
	}
	f := rt.Spawn(w.Runtime(), w, func(w *rt.W) int { return fib(w, bc, n-1, cutoff) })
	y := fib(w, bc, n-2, cutoff)
	return f.Touch(w) + y
}

type treeNode struct {
	val         int
	left, right *treeNode
}

// buildTree builds a balanced tree whose values come from the seed; at
// depth 18 its 262 143 nodes take 8 MB of heap, larger than the caches of
// the dev box, so treeSum chases pointers through memory.
func buildTree(depth int, r *rng) *treeNode {
	if depth == 0 {
		return nil
	}
	n := &treeNode{val: int(r.next() & 0xffff)}
	n.left = buildTree(depth-1, r)
	n.right = buildTree(depth-1, r)
	return n
}

func treeSumSeq(n *treeNode) int {
	if n == nil {
		return 0
	}
	return n.val + treeSumSeq(n.left) + treeSumSeq(n.right)
}

func treeSum(w *rt.W, bc *busyClock, n *treeNode, depth, cutoff int) int {
	if n == nil {
		return 0
	}
	if depth <= cutoff {
		t0 := bc.start()
		v := treeSumSeq(n)
		bc.stop(w, t0)
		return v
	}
	f := rt.Spawn(w.Runtime(), w, func(w *rt.W) int { return treeSum(w, bc, n.left, depth-1, cutoff) })
	r := treeSum(w, bc, n.right, depth-1, cutoff)
	return n.val + f.Touch(w) + r
}

// grain is the arithmetic every randstruct task does besides scheduling:
// about 0.3 us, so a task is not pure scheduler cost as in fib.
func grain(seed uint64) int {
	r, acc := seed, 0
	for i := 0; i < 256; i++ {
		r = xorshift(r)
		acc += int(r & 0xff)
	}
	return acc
}

// randstructCount walks the fork tree of randstruct(seed, depth) without
// doing its work and returns the number of tasks, which is how inputs of a
// similar size are chosen from the seed (see pickShapes). It must draw from r
// exactly as randstruct does.
func randstructCount(seed uint64, depth int) int {
	if depth == 0 {
		return 1
	}
	n := 1
	r := xorshift(seed)
	kids := 1 + int(r%3)
	for i := 0; i < kids; i++ {
		r = xorshift(r)
		child := r
		r = xorshift(r) // randstruct's pass-or-keep draw
		n += randstructCount(child, depth-1)
	}
	return n
}

// randstructSeq is randstruct with the futures removed.
func randstructSeq(seed uint64, depth int) int {
	acc := grain(seed)
	if depth == 0 {
		return acc
	}
	r := xorshift(seed)
	kids := 1 + int(r%3)
	for i := 0; i < kids; i++ {
		r = xorshift(r)
		child := r
		r = xorshift(r)
		acc += randstructSeq(child, depth-1)
	}
	return acc
}

// randstruct is a structured single-touch computation that is not
// fork-join: a task hands its oldest untouched future to the next child it
// spawns, and that child touches it (the paper's Figure 5(b) pattern). The
// toucher is not the creator, so the runtime cannot run the future inline
// from the creator's own deque.
func randstruct(w *rt.W, bc *busyClock, seed uint64, depth int) int {
	t0 := bc.start()
	acc := grain(seed)
	bc.stop(w, t0)
	if depth == 0 {
		return acc
	}
	r := xorshift(seed)
	kids := 1 + int(r%3)
	var open []*rt.Future[int]
	for i := 0; i < kids; i++ {
		r = xorshift(r)
		child := r
		r = xorshift(r)
		var passed *rt.Future[int]
		if len(open) > 0 && r&1 == 0 {
			passed = open[0]
			open = open[1:]
		}
		d := depth - 1
		f := rt.Spawn(w.Runtime(), w, func(w *rt.W) int {
			v := randstruct(w, bc, child, d)
			if passed != nil {
				v += passed.Touch(w)
			}
			return v
		})
		open = append(open, f)
	}
	for _, f := range open {
		acc += f.Touch(w)
	}
	return acc
}

// shape is one randstruct input with its reference result and task count.
type shape struct {
	seed        uint64
	depth       int
	want, tasks int
}

// shapeCandidates is how many seeds pickShapes examines. The count is
// fixed, so choosing inputs costs the same for every seed and set-up time
// does not depend on luck.
const shapeCandidates = 512

// pickShapes draws shapeCandidates randstruct inputs from r and keeps the n
// whose task counts are closest to target. The fork tree is a branching
// process, so an unconstrained draw varies in size by more than half its
// mean from seed to seed; holding the size keeps one seed's run comparable
// with another's while the shape itself stays random.
func pickShapes(r *rng, n, depth, target int) []shape {
	all := make([]shape, shapeCandidates)
	for i := range all {
		all[i] = shape{seed: r.next(), depth: depth}
		all[i].tasks = randstructCount(all[i].seed, depth)
	}
	off := func(s shape) int { return max(s.tasks-target, target-s.tasks) }
	sort.SliceStable(all, func(i, j int) bool { return off(all[i]) < off(all[j]) })
	out := all[:n]
	for i := range out {
		out[i].want = randstructSeq(out[i].seed, depth)
	}
	return out
}

func pipelineWant(items int) int {
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= i*31 + 7
	}
	return acc
}

// pipeline is the local-touch kernel: one producer task computes a stream
// and the caller consumes it item by item.
func pipeline(w *rt.W, items int) int {
	st := rt.Produce(w.Runtime(), w, items, func(_ *rt.W, i int) int { return i*31 + 7 })
	acc := 0
	for i := 0; i < items; i++ {
		acc ^= st.Get(w, i)
	}
	return acc
}
