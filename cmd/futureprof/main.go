// Command futureprof runs an example workload on the real work-stealing
// futures runtime under the live execution profiler and prints the
// predicted-vs-measured report: the computation DAG reconstructed from the
// run's event trace, its structure class (Definitions 1/2/3/13/17), the
// measured deviation count (steals + helped tasks + blocked touches)
// against the Theorem 8/12 envelope P·T∞², and the Section 3 simulator's
// prediction for the same DAG.
//
// Usage:
//
//	futureprof -workload fib                 # fib(20), default parent-first spawns
//	futureprof -workload fib -discipline future-first   # same code, dived spawns
//	futureprof -workload fibjoin -n 22       # work-first Join2 variant
//	futureprof -workload map -n 64           # matmul-style map over 64 rows
//	futureprof -workload pipeline -n 256     # local-touch stream (§6.1)
//	futureprof -workload priority -n 32      # Figure 5(a) priority touches
//	futureprof -workload fib -workers 8 -trials 16
//	futureprof -workload fib -cachemodel 64,lru   # simulated extra-miss accounting
//	futureprof -workload fib -topology 2x2   # two LLC domains: domain-tiered thieves
//	futureprof -workload fib -events         # dump the raw event trace too
//	futureprof -workload fib -jobs 4         # 4 concurrent jobs (Submit), one verdict each
//	futureprof -workload fib -o report.txt   # also write the report to a file
//
// -discipline sets the runtime-wide default fork discipline. The workers'
// steal rule is not a flag: it is read off the topology (uniformly random
// single steals where the workers share one LLC domain, domain-tiered where
// -topology or the host gives them several) and printed with the run. The
// report's "spawn disciplines" and "steal attribution" lines show what was
// actually recorded per event, and its (fork × steal) matrix replays the
// reconstructed DAG through the simulator under every policy pair.
package main

import (
	"flag"
	"fmt"
	"os"

	fl "futurelocality"
	"futurelocality/internal/experiments"
)

// workloads are the live programs of internal/experiments by flag name:
// each entry's default size and the call that runs it.
var workloads = map[string]struct {
	size int
	run  func(rt *fl.Runtime, w *fl.W, n int)
}{
	"fib":      {20, func(rt *fl.Runtime, w *fl.W, n int) { experiments.Fib(rt, w, experiments.FibSpawn, n, 10, 0) }},
	"fibjoin":  {20, func(rt *fl.Runtime, w *fl.W, n int) { experiments.Fib(rt, w, experiments.FibJoin, n, 10, 0) }},
	"map":      {48, func(rt *fl.Runtime, w *fl.W, n int) { experiments.MapRows(rt, w, n, 8) }},
	"pipeline": {256, func(rt *fl.Runtime, w *fl.W, n int) { experiments.Pipeline(rt, w, n, 0) }},
	"priority": {32, func(rt *fl.Runtime, w *fl.W, n int) { experiments.PriorityTouches(rt, w, n, 0) }},
}

func main() {
	var (
		workload   = flag.String("workload", "fib", "fib | fibjoin | map | pipeline | priority")
		n          = flag.Int("n", 0, "workload size (default: per-workload preset)")
		workers    = flag.Int("workers", 4, "runtime worker count")
		trials     = flag.Int("trials", 8, "simulator replay trials")
		cacheModel = flag.String("cachemodel", "",
			"cache-cost model for the footprint replay, \"C[,policy][,w=N][,llc=N][,noideal]\" (e.g. 64,lru); adds simulated extra-miss accounting per job and per (fork × steal) cell")
		events     = flag.Bool("events", false, "also dump the raw event trace")
		discipline = flag.String("discipline", "parent-first",
			"default fork discipline for Spawn: future-first | parent-first")
		topoSpec = flag.String("topology", "",
			"cache topology for worker domains and the sim replay: a synthetic DxC spec (e.g. 2x2), or empty for the host hierarchy discovered from sysfs")
		jobs = flag.Int("jobs", 1,
			"concurrent copies of the workload to Submit as jobs (>1 profiles the multi-tenant job server and reports one per-job verdict each)")
		flight = flag.Int("flight", 0,
			"use the flight recorder instead of a profiling session: ring of N events per worker (0 = off); the report covers the recent window the ring holds")
		outPath = flag.String("o", "", "also write the report to this file (for CI artifacts)")
	)
	flag.Parse()

	disc, err := fl.ParseDiscipline(*discipline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "futureprof:", err)
		os.Exit(1)
	}
	rtOpts := []fl.RuntimeOption{fl.WithWorkers(*workers), fl.WithDiscipline(disc)}
	if *topoSpec != "" {
		topo, err := fl.SyntheticTopology(*topoSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "futureprof:", err)
			os.Exit(1)
		}
		rtOpts = append(rtOpts, fl.WithTopology(topo))
	}
	if *flight > 0 {
		rtOpts = append(rtOpts, fl.WithFlightRecorder(*flight))
	}
	rt := fl.NewRuntime(rtOpts...)
	defer rt.Shutdown()

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "futureprof: unknown workload %q\n", *workload)
		os.Exit(1)
	}
	if *n > 0 {
		wl.size = *n
	}
	run := func(w *fl.W) { wl.run(rt, w, wl.size) }

	// Flight mode diagnoses from the always-on ring; only the session mode
	// opens an explicit profiling window.
	if *flight == 0 {
		if err := rt.StartProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "futureprof:", err)
			os.Exit(1)
		}
	}
	if *jobs <= 1 {
		fl.Run(rt, func(w *fl.W) struct{} { run(w); return struct{}{} })
	} else {
		// Multi-tenant mode: submit every copy before waiting on any, so the
		// computations genuinely interleave on the pool and the report's
		// per-job section shows each DAG's own envelope verdict.
		handles := make([]fl.Job[struct{}], 0, *jobs)
		for i := 0; i < *jobs; i++ {
			j, err := fl.Submit(rt, func(w *fl.W) struct{} { run(w); return struct{}{} })
			if err != nil {
				fmt.Fprintln(os.Stderr, "futureprof:", err)
				os.Exit(1)
			}
			handles = append(handles, j)
		}
		for _, j := range handles {
			if _, err := j.WaitErr(); err != nil {
				fmt.Fprintln(os.Stderr, "futureprof:", err)
				os.Exit(1)
			}
		}
	}
	var tr *fl.ProfileTrace
	if *flight > 0 {
		var err error
		if tr, err = rt.DumpFlight(); err != nil {
			fmt.Fprintln(os.Stderr, "futureprof:", err)
			os.Exit(1)
		}
		fmt.Printf("futureprof: flight window (ring %d/worker) — the report covers the recent window, not the whole run\n", *flight)
	} else {
		tr = rt.StopProfile()
	}

	fmt.Printf("futureprof: workload=%s workers=%d discipline=%s steal=%s jobs=%d (%d events traced)\n",
		*workload, *workers, disc, rt.StealPolicy(), *jobs, tr.Len())
	fmt.Printf("futureprof: topology source=%s, %d domains, workers striped %v\n\n",
		rt.Topology().Source, rt.NumDomains(), rt.DomainAssignment())
	if *events {
		for _, ev := range tr.Events() {
			fmt.Println("  ", ev)
		}
		fmt.Println()
	}
	var model *fl.CacheModel
	if *cacheModel != "" {
		if model, err = fl.ParseCacheModel(*cacheModel); err != nil {
			fmt.Fprintln(os.Stderr, "futureprof:", err)
			os.Exit(1)
		}
	}
	rep, err := fl.AnalyzeProfile(tr, fl.ProfileOptions{
		P: *workers, Trials: *trials, Domains: rt.DomainAssignment(), CacheModel: model,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "futureprof:", err)
		os.Exit(1)
	}
	fmt.Print(rep)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(rep.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "futureprof:", err)
			os.Exit(1)
		}
	}
}
