package experiments

import (
	"fmt"
	gort "runtime"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
)

// profiled runs workload on a fresh runtime under the profiler and returns
// the predicted-vs-measured report.
func profiled(workers int, opts profile.Options, workload func(*runtime.Runtime, *runtime.W)) *profile.Report {
	rt := runtime.New(runtime.WithWorkers(workers))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		panic(err)
	}
	runtime.Run(rt, func(w *runtime.W) struct{} {
		workload(rt, w)
		return struct{}{}
	})
	rep, err := rt.ProfileReport(opts)
	if err != nil {
		panic(err)
	}
	return rep
}

// E15 closes the loop between the real runtime and the model: each example
// workload runs on the work-stealing runtime under the live profiler, the
// event trace is reconstructed into the computation DAG the run actually
// performed, the DAG is classified (Definitions 1/2/3/13/17), the measured
// deviations (steals + helped tasks + blocked touches) are compared against
// the Theorem 8/12 envelope P·T∞², and the same DAG is replayed through the
// Section 3 simulator for the predicted deviation count — predicted vs.
// measured from one execution.
func e15(scale Scale) Result {
	fibN, items, mapN, jobs, leaf := 14, 32, 32, 12, 20
	trials := 4
	if scale == Full {
		fibN, items, mapN, jobs, leaf = 18, 128, 128, 48, 60
		trials = 8
	}
	workers := 4

	type workload struct {
		name string
		run  func(*runtime.Runtime, *runtime.W)
	}
	workloads := []workload{
		{"fib(spawn, help-first)", func(rt *runtime.Runtime, w *runtime.W) { Fib(rt, w, FibSpawn, fibN, 2, leaf) }},
		{"fib(spawnwith, future-first)", func(rt *runtime.Runtime, w *runtime.W) { Fib(rt, w, FibDive, fibN, 2, leaf) }},
		{"fib(join, work-first)", func(rt *runtime.Runtime, w *runtime.W) { Fib(rt, w, FibJoin, fibN, 2, leaf) }},
		{"matmul-style map", func(rt *runtime.Runtime, w *runtime.W) { MapRows(rt, w, mapN, leaf) }},
		{"pipeline (stream)", func(rt *runtime.Runtime, w *runtime.W) { Pipeline(rt, w, items, leaf) }},
		{"priority touches", func(rt *runtime.Runtime, w *runtime.W) { PriorityTouches(rt, w, jobs, leaf) }},
	}

	tb := stats.NewTable("workload", "tasks", "class", "T1", "T∞", "t",
		"measured dev", "P·T∞²", "within", "sim dev(max)", "sim steals(mean)")
	for _, wl := range workloads {
		rep := profiled(workers, profile.Options{Trials: trials}, wl.run)
		d := stats.Summarize(stats.Ints(rep.Sim.Deviations))
		s := stats.Summarize(stats.Ints(rep.Sim.Steals))
		within := "-"
		if rep.DeviationBound > 0 {
			within = fmt.Sprintf("%v", rep.WithinBound())
		}
		tb.Add(wl.name, len(rep.Recon.Tasks), rep.Class.String(), rep.Work, rep.Span,
			rep.Touches, rep.MaxDeviations, rep.DeviationBound, within, d.Max, s.Mean)
	}
	md := tb.String() + fmt.Sprintf(
		"\nEvery workload is reconstructed from the live event trace of the real "+
			"work-stealing runtime; the classes match what the source patterns guarantee by "+
			"construction, and the measured deviation count (steals + helped tasks + blocked "+
			"touches) sits inside the Theorem 8/12 envelope P·T∞² wherever the run grants one "+
			"— the paper's bounds observed on real executions, not just in the simulator. A run "+
			"is granted the envelope only when its class is covered and every fork it recorded "+
			"was future-first: one parent-first fork (Spawn's default, the branch Join2 and Map "+
			"push, a Produce producer) withholds it, as Theorem 10 says it must. The measured column reflects the parallelism of the host it was "+
			"taken on (%d CPUs, GOMAXPROCS=%d, %s): with fewer CPUs than workers the runs "+
			"partly serialize and measured deviations stay small, while the sim column "+
			"predicts the random-steal P-processor execution of the same DAG.\n",
		gort.NumCPU(), gort.GOMAXPROCS(0), gort.Version())
	return Result{ID: "E15", Title: "Live profiler: predicted vs measured deviations (runtime ↔ model)", Markdown: md}
}

// E16 measures the payoff where E1–E15 measure the proxy: the shared fib
// workload runs on the real runtime under the profiler, its DAG is
// reconstructed, a block footprint is derived from the DAG's thread
// structure, and each fork discipline's replayed random-single schedules are
// driven through P private 64-line LRU caches. A cell's extra misses are its
// trials' misses minus the same footprint's misses under that fork
// discipline's own sequential order. The reconstructed DAG — and so the
// whole table — is a function of the program, not of the run's schedule.
func e16(scale Scale) Result {
	fibN, trials := 17, 4
	if scale == Full {
		fibN, trials = 20, 8
	}
	const workers, cutoff = 4, 10
	model := &core.CacheModel{Lines: 64, Kind: cache.LRU}
	rep := profiled(workers, profile.Options{Trials: trials, CacheModel: model},
		func(rt *runtime.Runtime, w *runtime.W) { Fib(rt, w, FibSpawn, fibN, cutoff, 0) })

	tb := stats.NewTable("extra misses (mean/max)", sim.RandomSingle.String())
	for _, cell := range rep.Matrix {
		v := fmt.Sprintf("%.1f / %d", cell.MeanExtraMisses, cell.MaxExtraMisses)
		if cell.MissBound > 0 {
			v += " *"
		}
		tb.Add(cell.Fork.String(), v)
	}
	cc := rep.Sim.CacheCost
	md := fmt.Sprintf("fib(%d), cutoff %d → %d tasks, T∞=%d, P=%d, model [%s]; sequential misses **%d**, "+
		"ideal/OPT **%d**.\n\n", fibN, cutoff, len(rep.Recon.Tasks), rep.Span, rep.P, cc.Model, cc.SeqMisses, cc.IdealMisses) +
		tb.String() + fmt.Sprintf(
		"\n\\* = the C·(1+P·T∞²) envelope is granted — only at future-first × random-single, the "+
			"parsimonious scheduler the proofs assume: %d·(1+%d·%d²) = **%d**, max extra misses there %d, "+
			"within bound: %v.\n",
		cc.Model.Lines, rep.P, rep.Span, cc.MissEnvelope, cc.MaxExtra(), cc.WithinEnvelope())
	return Result{ID: "E16", Title: "Cache-miss replay across the fork × steal matrix (runtime ↔ cache model)", Markdown: md}
}
