package main

import (
	"errors"
	"fmt"
	"time"

	rt "futurelocality/internal/runtime"
)

// fjInput is one computation of a fork-join workload with its reference
// result. run takes the traced run's busy clock, or nil.
type fjInput struct {
	name string
	run  func(w *rt.W, bc *busyClock) int
	want int
}

// fjInstance runs its inputs in cycles, each through Run on one runtime of
// W workers under the runtime's defaults: parent-first forks and random
// single steals, the pair the paper's model starts from.
type fjInstance struct {
	rt     *rt.Runtime
	inputs []fjInput
}

func (f *fjInstance) close() { f.rt.Shutdown() }

// cycle runs every input once and checks each result.
func (f *fjInstance) cycle(r *result, bc *busyClock) {
	for _, in := range f.inputs {
		got := rt.Run(f.rt, func(w *rt.W) int { return in.run(w, bc) })
		if r != nil {
			r.check(got == in.want, "%s: got %d, want %d", in.name, got, in.want)
		}
	}
}

func newFJ(e *env, inputs []fjInput) (instance, error) {
	f := &fjInstance{
		rt:     rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed)),
		inputs: inputs,
	}
	// One checked cycle belongs to set-up: it pages the inputs in and grows
	// the deques to their working size, as the first request of a real
	// program would.
	r := newResult("")
	f.cycle(r, nil)
	if r.failed > 0 {
		f.close()
		return nil, errors.New(r.failures[0])
	}
	return f, nil
}

func setupFJFine(e *env) (instance, error) {
	const fibN, fibCut, treeDepth, treeCut = 30, 8, 18, 6
	tree := buildTree(treeDepth, newRNG(e.seed, 1))
	return newFJ(e, []fjInput{
		{"fib(30,8)", func(w *rt.W, bc *busyClock) int { return fib(w, bc, fibN, fibCut) }, fibSeq(fibN, fibCut)},
		{"treesum(18,6)", func(w *rt.W, bc *busyClock) int { return treeSum(w, bc, tree, treeDepth, treeCut) }, treeSumSeq(tree)},
	})
}

// The passed-touch inputs: a depth-12 randstruct tree averages 2^13 tasks,
// and pickShapes keeps the eight shapes nearest that size. Eight shapes a
// cycle, not a few larger ones, so that one seed's unusual shape moves the
// cycle time little.
const (
	fjPassedShapes = 8
	fjPassedDepth  = 12
	fjPassedTasks  = 1 << 13
)

func setupFJPassed(e *env) (instance, error) {
	shapes := pickShapes(newRNG(e.seed, 2), fjPassedShapes, fjPassedDepth, fjPassedTasks)
	inputs := make([]fjInput, len(shapes))
	for i, s := range shapes {
		inputs[i] = fjInput{
			name: "randstruct",
			run:  func(w *rt.W, bc *busyClock) int { return randstruct(w, bc, s.seed, s.depth) },
			want: s.want,
		}
	}
	return newFJ(e, inputs)
}

func (f *fjInstance) measure(e *env, r *result) {
	total := e.dur(1)
	for end := time.Now().Add(e.warmup(total)); time.Now().Before(end); {
		f.cycle(nil, nil)
	}

	var bc *busyClock
	if e.tr != nil {
		bc = newBusyClock(e.workers)
	}
	before := f.rt.Stats()
	var cycles []float64
	r.acct.begin(true)
	for start := time.Now(); time.Since(start) < total; {
		t0 := time.Now()
		f.cycle(r, bc)
		t1 := time.Now()
		cycles = append(cycles, float64(t1.Sub(t0))/1e6)
		if e.tr != nil {
			e.tr.add(span{name: "cycle", layer: "runtime", start: e.tr.at(t0), end: e.tr.at(t1), parent: -1, op: int64(len(cycles))})
		}
	}
	r.acct.end()
	after := f.rt.Stats()

	runs := int64(len(cycles) * len(f.inputs))
	tasks := after.TasksRun - before.TasksRun
	r.ops, r.cpuOps = tasks, tasks
	steals := after.Steals - before.Steals
	r.check(after.IntraSteals+after.CrossSteals == after.Steals,
		"steal conservation: intra %d + cross %d != steals %d", after.IntraSteals, after.CrossSteals, after.Steals)

	wall := r.acct.wall.Seconds()
	r.e2e["ops_per_s"] = float64(tasks) / wall
	r.e2e["req_ms_p50"] = percentile(cycles, 50)
	r.e2e["req_ms_p85"] = percentile(cycles, 85)
	r.notes = append(r.notes, fmt.Sprintf("%d cycles of %d runs, %d tasks", len(cycles), len(f.inputs), tasks))

	perRun := func(n int64) float64 { return float64(n) / float64(runs) }
	r.layer["runtime.steals_per_run"] = perRun(steals)
	r.layer["runtime.blocked_touches_per_run"] = perRun(after.BlockedTouches - before.BlockedTouches)
	r.layer["runtime.helped_per_run"] = perRun(after.HelpedTasks - before.HelpedTasks)
	// Every task but a run's root is a future touched exactly once.
	r.layer["runtime.inline_touch_frac"] = float64(after.InlineTouches-before.InlineTouches) / float64(tasks-runs)
	r.degenerate = e.workers > 1 && steals == 0
	r.layer["runtime.degenerate"] = boolMetric(r.degenerate)
	if bc != nil {
		busy := bc.total().Seconds()
		r.notes = append(r.notes, fmt.Sprintf("leaf bodies busy %.3f s of %d workers x %.3f s wall; scheduler self time %.3f s",
			busy, e.workers, wall, float64(e.workers)*wall-busy))
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
