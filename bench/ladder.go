package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/deque"
	"futurelocality/internal/graphs"
	rt "futurelocality/internal/runtime"
	"futurelocality/internal/shard"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
	"futurelocality/internal/topology"
)

// The ladder is the per-layer half of the benchmark: small timed loops
// around the exported calls of each layer, one rung per metric. It runs on
// the traced pass only, so it never disturbs an end-to-end number.
type ladder struct {
	e *env
	m map[string]float64 // the rungs measured so far
	// reps is how often a rung is repeated; its value is the median. Five,
	// or one on a scaled-down run.
	reps int
}

func newLadder(e *env) *ladder {
	l := &ladder{e: e, m: map[string]float64{}, reps: 5}
	if e.short() {
		l.reps = 1
	}
	return l
}

// iters scales a rung's iteration count down with a scaled-down run, so
// that the smoke test does not pay for the full ladder.
func (l *ladder) iters(n int) int {
	return max(64, int(float64(n)*min(1, l.e.seconds/fullSeconds)))
}

// nsPerOp times fn(n) reps times and returns the median ns per op.
func (l *ladder) nsPerOp(n int, fn func(n int)) float64 {
	out := make([]float64, l.reps)
	for i := range out {
		t0 := time.Now()
		fn(n)
		out[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(out)
}

// msOf returns the median time of fn in ms.
func (l *ladder) msOf(fn func()) float64 {
	return l.nsPerOp(1, func(int) { fn() }) / 1e6
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func (l *ladder) deque() {
	const batch = 1024
	workers := l.e.workers
	item := new(int)
	d := deque.NewPtr[int](batch)
	l.m["deque.ptr_push_pop_ns"] = l.nsPerOp(l.iters(1<<20), func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(item)
			d.PopBottom()
		}
	})

	// Uncontended steals: fill a batch, then time only the steals.
	stealNs := func(steal func()) float64 {
		n := max(batch, l.iters(1<<18))
		reps := make([]float64, l.reps)
		for r := range reps {
			var spent time.Duration
			for done := 0; done < n; done += batch {
				for i := 0; i < batch; i++ {
					d.PushBottom(item)
				}
				t0 := time.Now()
				steal()
				spent += time.Since(t0)
			}
			reps[r] = float64(spent) / float64(n)
		}
		return median(reps)
	}
	l.m["deque.ptr_steal_ns"] = stealNs(func() {
		for i := 0; i < batch; i++ {
			d.StealTop()
		}
	})
	out := make([]*int, 16)
	l.m["deque.ptr_stealn_ns_per_item"] = stealNs(func() {
		for i := 0; i < batch; i += len(out) {
			d.StealN(out)
		}
	})

	// Contended steals: W-1 thieves (at least one) share out a backlog at
	// the top while the owner pushes and pops at the bottom without pause.
	// The backlog outlasts the thieves, so a failed attempt is a CAS lost to
	// another thief, and the time is a steal's cost with every line of the
	// deque in motion.
	thieves := max(1, workers-1)
	var tries, fails atomic.Int64
	l.m["deque.ptr_steal_contended_ns"] = l.nsPerOp(l.iters(1<<17), func(n int) {
		for i := 0; i < n*thieves+batch; i++ {
			d.PushBottom(item)
		}
		var stop atomic.Bool
		var owner, wg sync.WaitGroup
		owner.Add(1)
		go func() {
			defer owner.Done()
			for !stop.Load() {
				d.PushBottom(item)
				d.PopBottom()
			}
		}()
		for g := 0; g < thieves; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t, f := 0, 0
				for got := 0; got < n; t++ {
					if _, ok := d.StealTop(); ok {
						got++
					} else {
						f++
					}
				}
				tries.Add(int64(t))
				fails.Add(int64(f))
			}()
		}
		wg.Wait()
		stop.Store(true)
		owner.Wait()
		for {
			if _, ok := d.PopBottom(); !ok {
				break
			}
		}
	})
	l.m["deque.ptr_steal_fail_frac"] = float64(fails.Load()) / float64(tries.Load())

	// The runtime's global injection queue is a Locked deque: submitters
	// push at the bottom, workers take from the top.
	var q deque.Locked[*int]
	l.m["deque.locked_push_steal_ns"] = l.nsPerOp(l.iters(1<<19), func(n int) {
		for i := 0; i < n; i++ {
			q.PushBottom(item)
			q.StealTop()
		}
	})
	l.m["deque.locked_contended_ns"] = l.nsPerOp(l.iters(1<<18), func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					q.PushBottom(item)
					q.StealTop()
				}
			}()
		}
		wg.Wait()
	})
}

// fibProbe is the fork-join input the runtime, telemetry and profile rungs
// share: small enough to repeat, large enough (about 17 000 tasks) that a
// per-task cost shows.
const fibProbeN, fibProbeCut = 27, 8

func (l *ladder) runtime() {
	e := l.e
	one := rt.New(rt.WithWorkers(1), rt.WithSeed(e.seed))
	defer one.Shutdown()
	leaf := func(*rt.W) int { return 1 }
	spawnTouch := func(d rt.Discipline) func(n int) {
		return func(n int) {
			rt.Run(one, func(w *rt.W) int {
				for i := 0; i < n; i++ {
					rt.SpawnWith(one, w, d, leaf).Touch(w)
				}
				return 0
			})
		}
	}
	pairs := l.iters(1 << 17)
	l.m["runtime.spawn_touch_pf_ns"] = l.nsPerOp(pairs, spawnTouch(rt.ParentFirst))
	l.m["runtime.spawn_touch_ff_ns"] = l.nsPerOp(pairs, spawnTouch(rt.FutureFirst))
	l.m["runtime.spawn_touch_allocs"] = mallocs(func() { spawnTouch(rt.ParentFirst)(pairs) }) / float64(pairs)

	items := l.iters(1 << 14)
	l.m["runtime.stream_item_ns_w1"] = l.nsPerOp(items, func(n int) {
		rt.Run(one, func(w *rt.W) int { return pipeline(w, n) })
	})

	// The fj-fine inputs three ways: plain sequential Go, one worker, and W
	// workers. One worker over sequential is what the futures cost with no
	// parallelism to pay for them; one worker over W workers is the
	// wall-clock scaling, which on shared vCPUs is reported and not gated.
	tree := buildTree(18, newRNG(e.seed, 1))
	many := rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed))
	defer many.Shutdown()
	cycle := func(r *rt.Runtime) {
		rt.Run(r, func(w *rt.W) int { return fib(w, nil, 30, 8) })
		rt.Run(r, func(w *rt.W) int { return treeSum(w, nil, tree, 18, 6) })
	}
	cycle(one)
	cycle(many)
	seqMs := l.msOf(func() { fibSeq(30, 8); treeSumSeq(tree) })
	before := one.Stats().TasksRun
	oneMs := l.msOf(func() { cycle(one) })
	tasks := float64(one.Stats().TasksRun-before) / float64(l.reps)
	manyMs := l.msOf(func() { cycle(many) })
	l.m["runtime.task_ns_w1"] = oneMs * 1e6 / tasks
	l.m["runtime.overhead_vs_seq"] = oneMs / seqMs
	l.m["runtime.speedup_w"] = oneMs / manyMs

	l.wake()

	// The flight recorder and the profiler hook the same scheduler events;
	// each ratio is the probe's time with the recorder on over its time off.
	probe := func(r *rt.Runtime) func() {
		return func() { rt.Run(r, func(w *rt.W) int { return fib(w, nil, fibProbeN, fibProbeCut) }) }
	}
	plainMs := l.msOf(probe(many))
	flight := rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed), rt.WithFlightRecorder(0))
	defer flight.Shutdown()
	probe(flight)()
	l.m["telemetry.flight_ratio"] = l.msOf(probe(flight)) / plainMs

	var events int
	before = many.Stats().TasksRun
	profiledMs := l.msOf(func() {
		if err := many.StartProfile(); err != nil {
			return
		}
		probe(many)()
		events = many.StopProfile().Len()
	})
	l.m["profile.capture_ratio"] = profiledMs / plainMs
	l.m["profile.events_per_task"] = float64(events) / (float64(many.Stats().TasksRun-before) / float64(l.reps))

	// One scrape of the Prometheus page of a runtime that has served work.
	var page bytes.Buffer
	l.m["telemetry.scrape_ms"] = l.msOf(func() {
		page.Reset()
		_ = many.WriteMetrics(&page) // a bytes.Buffer does not fail
	})
	l.m["telemetry.scrape_bytes"] = float64(page.Len())

	var h stats.Histogram
	l.m["stats.hist_observe_ns"] = l.nsPerOp(l.iters(1<<20), func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i))
		}
	})
}

// ladderWake times the steal-and-wake-up path: on a two-worker runtime
// whose second worker is parked, from just before a Spawn to the first
// instruction of the child. The parent spins without touching, so only the
// woken worker can run the child, and it must steal it.
func (l *ladder) wake() {
	e := l.e
	two := rt.New(rt.WithWorkers(2), rt.WithSeed(e.seed))
	defer two.Shutdown()
	rounds := l.iters(300)
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		time.Sleep(time.Millisecond) // idle: both workers park
		rt.Run(two, func(w *rt.W) int {
			// A wake-up meant for the root may have roused the other worker
			// too; give it time to find nothing and park again.
			for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
			}
			var woke atomic.Int64
			t0 := time.Now()
			f := rt.SpawnWith(two, w, rt.ParentFirst, func(*rt.W) int {
				woke.Store(int64(time.Since(t0)))
				return 0
			})
			for woke.Load() == 0 {
			}
			us = append(us, float64(woke.Load())/1e3)
			return f.Touch(w)
		})
	}
	l.m["runtime.wake_us_p50"] = percentile(us, 50)
	l.m["runtime.wake_us_p99"] = percentile(us, 99)
}

func (l *ladder) jobs() {
	e := l.e
	one := func(*rt.W) int { return 1 }
	r := rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed), rt.WithMaxInFlight(serveCap))
	defer r.Shutdown()
	submitWait := func(n int) {
		for i := 0; i < n; i++ {
			if j, err := rt.Submit(r, one); err == nil {
				j.Wait()
			}
		}
	}
	jobs := l.iters(1 << 14)
	submitWait(jobs) // fill the root freelist: the steady state is what is measured
	l.m["job.submit_wait_ns"] = l.nsPerOp(jobs, submitWait)
	l.m["job.submit_wait_allocs"] = mallocs(func() { submitWait(jobs) }) / float64(jobs)

	fns := make([]func(*rt.W) int, 16)
	for i := range fns {
		fns[i] = one
	}
	var handles []rt.Job[int]
	l.m["job.submitall16_ns_per_job"] = l.nsPerOp(jobs, func(n int) {
		for done := 0; done < n; done += len(fns) {
			handles, _ = rt.SubmitAll(r, fns, handles[:0]) // 16 is far below the cap
			for i := range handles {
				handles[i].Wait()
			}
		}
	})

	p := shard.NewPool(shard.WithShards(2), shard.WithWorkers(e.workers), shard.WithMaxInFlight(serveCap),
		shard.WithRuntimeOptions(rt.WithSeed(e.seed)))
	defer p.Shutdown()
	poolWait := func(n int) {
		for i := 0; i < n; i++ {
			if j, err := shard.Submit(p, one); err == nil {
				j.Wait()
			}
		}
	}
	poolWait(jobs)
	l.m["shard.submit_wait_ns"] = l.nsPerOp(jobs, poolWait)
	l.m["shard.route_overhead_ns"] = l.m["shard.submit_wait_ns"] - l.m["job.submit_wait_ns"]
	l.m["shard.keyed_submit_ns"] = l.nsPerOp(jobs, func(n int) {
		for i := 0; i < n; i++ {
			if j, err := shard.SubmitKeyed(p, uint64(i), one); err == nil {
				j.Wait()
			}
		}
	})
}

// ladderAnalysis times the analysis layers one call at a time on the fib
// DAG of the analyze workload. core.self_ms is core.Analyze's time minus
// the stand-alone simulator and cache calls it is known to make: one
// sequential run and analyzeTrials parallel ones, one footprint, one replay
// per schedule, and the Belady baseline.
func (l *ladder) analysis() error {
	e := l.e
	var g *dag.Graph
	buildMs := l.msOf(func() { g = graphs.Fib(16, 2) })
	nodes := float64(g.Len())
	l.m["dag.build_nodes_per_s"] = nodes / (buildMs / 1e3)

	var blob bytes.Buffer
	var err error
	l.m["dag.codec_roundtrip_ms"] = l.msOf(func() {
		blob.Reset()
		if werr := dag.WriteBinary(&blob, g); werr != nil {
			err = werr
		} else if _, rerr := dag.ReadBinary(&blob); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return fmt.Errorf("dag codec round trip: %w", err)
	}

	simulate := func(lines int) (*sim.Result, float64, error) {
		var res *sim.Result
		var err error
		ms := l.msOf(func() {
			var eng *sim.Engine
			if eng, err = sim.New(g, sim.Config{P: analyzeP, Policy: sim.FutureFirst, CacheLines: lines,
				Control: sim.NewRandomControl(e.seed)}); err == nil {
				res, err = eng.Run()
			}
		})
		return res, ms, err
	}
	_, plainMs, err := simulate(0)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	res, cachedMs, err := simulate(analyzeLines)
	if err != nil {
		return fmt.Errorf("simulate with caches: %w", err)
	}
	l.m["sim.nodes_per_s"] = nodes / (plainMs / 1e3)
	var seq *sim.Result
	seqMs := l.msOf(func() { seq, err = sim.Sequential(g, sim.FutureFirst, analyzeLines, cache.LRU) })
	if err != nil {
		return fmt.Errorf("sequential baseline: %w", err)
	}

	model, err := core.ParseCacheModel(cacheSpec)
	if err != nil {
		return err
	}
	var fp *cache.Footprint
	l.m["cache.derive_footprint_ms"] = l.msOf(func() { fp = cache.DeriveFootprint(g, model.Lines-1) })
	set, err := cache.NewSet(cache.SetConfig{P: analyzeP, Kind: model.Kind, Lines: model.Lines})
	if err != nil {
		return err
	}
	order := make([]dag.NodeID, len(res.When))
	who := make([]int32, len(res.Who))
	for id, when := range res.When {
		order[when] = dag.NodeID(id)
		who[id] = int32(res.Who[id])
	}
	var accesses int64
	replayMs := l.msOf(func() { accesses = set.Replay(fp, order, who).Accesses })
	l.m["cache.replay_accesses_per_s"] = float64(accesses) / (replayMs / 1e3)
	flat := fp.Flatten(seq.SeqOrder())
	l.m["cache.opt_ms"] = l.msOf(func() { cache.OptimalMisses(flat, model.Lines) })

	analyzeMs := l.msOf(func() {
		_, err = core.Analyze(g, core.AnalyzeOptions{P: analyzeP, CacheLines: analyzeLines, Policy: sim.FutureFirst,
			Trials: analyzeTrials, Seed: e.seed, CacheModel: model})
	})
	if err != nil {
		return fmt.Errorf("core.Analyze: %w", err)
	}
	l.m["core.self_ms"] = analyzeMs - seqMs - analyzeTrials*cachedMs -
		l.m["cache.derive_footprint_ms"] - (1+analyzeTrials)*replayMs - l.m["cache.opt_ms"]

	l.m["topology.detect_ms"] = l.msOf(func() { topology.DetectFrom(topology.SysfsRoot, runtime.NumCPU()) })
	return nil
}

// probeShare is the part of the run's seconds each other workload gets on a
// traced run, to supply the per-layer metrics only it can measure.
const probeShare = 0.06

// runTraced is the -trace 1 run of one workload. It measures the workload
// untraced for a quarter of the seconds and traced for half, which gives
// trace.overhead_ratio inside one process; runs the ladder; and runs every
// other workload briefly, because a traced run reports every per-layer
// metric and some can only be measured by the workload that owns them. A
// metric the chosen workload measures itself always comes from its own
// traced phase.
func runTraced(o options, wl workload, out io.Writer) (*result, error) {
	base := o.env(nil)

	prev := runtime.GOMAXPROCS(base.workers)
	l := newLadder(base)
	l.deque()
	l.runtime()
	l.jobs()
	err := l.analysis()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	layer := l.m

	// Later probes overwrite earlier ones where two workloads measure the
	// same metric: fj-passed is the default source of the touch counters,
	// serve-runtime of the job stages.
	for _, name := range []string{"fj-fine", "fj-passed", "serve-pool", "serve-runtime", "analyze"} {
		if name == wl.name {
			continue
		}
		other, _ := findWorkload(name)
		pe := *base
		pe.seconds = max(base.seconds*probeShare, 0.1)
		res, err := runWorkload(other, &pe)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if res.failed > 0 {
			return nil, fmt.Errorf("probe %s: %s", name, res.failures[0])
		}
		for k, v := range res.layer {
			layer[k] = v
		}
	}

	ue := *base
	ue.seconds = base.seconds * 0.25
	untraced, err := runWorkload(wl, &ue)
	if err != nil {
		return nil, err
	}
	te := *base
	te.seconds = base.seconds * 0.5
	te.tr = newTracer()
	res, err := runWorkload(wl, &te)
	if err != nil {
		return nil, err
	}
	res.attempted += untraced.attempted
	res.failed += untraced.failed
	res.failures = append(untraced.failures, res.failures...)
	if res.failed > 0 {
		res.verdict = "fail"
	}
	for k, v := range res.layer {
		layer[k] = v
	}
	layer["trace.overhead_ratio"] = res.e2e["req_ms_p50"] / untraced.e2e["req_ms_p50"]
	res.layer = layer

	fmt.Fprintf(out, "\n   traced / untraced, same process:")
	for _, d := range endToEnd {
		fmt.Fprintf(out, " %s %.3f", d.name, res.e2e[d.name]/untraced.e2e[d.name])
	}
	fmt.Fprintln(out)
	self := te.tr.selfMsByLayer()
	for _, name := range sortedKeys(self) {
		res.notes = append(res.notes, fmt.Sprintf("span self time, layer %-8s %10.2f ms", name, self[name]))
	}
	path, err := te.tr.write(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", wl.name, o.seed), map[string]any{
		"workload": wl.name, "seed": o.seed, "W": base.workers, "gomaxprocs": res.gomaxprocs,
	})
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s (open in ui.perfetto.dev)", len(te.tr.spans), path))
	return res, nil
}
