//go:build !race

// Allocation budgets, excluded under -race (the race runtime allocates); CI
// runs them in its no-race pass.
package core

import (
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/sim"
)

// TestAnalyzeAllocBudget pins a warm Analyze at the benchmark's options — the
// fib, random structured and Fig6c inputs, P = 4, eight trials, in-engine
// caches and a cache model of 64 LRU lines — at two Ps. Every fact of a graph
// (its class, its sequential execution and bills, its footprint and cache
// baseline, OPT included) is kept with the graph and every trial reseeds its
// scratch's random control, so what is left is per report and per set of
// trials: 16 allocations an analysis. Recomputing the graph's facts on each
// call took 156 here; a fresh engine per baseline and a new random source per
// trial, 277.
func TestAnalyzeAllocBudget(t *testing.T) {
	t.Setenv(ReplayCheckEnv, "") // what an analysis allocates, not its check
	withProcs(t, 2)
	inputs := analysisInputs()
	opts := AnalyzeOptions{P: 4, CacheLines: 64, Policy: sim.FutureFirst, Steal: sim.RandomSingle,
		Trials: 8, Seed: 7, CacheModel: &CacheModel{Lines: 64, Kind: cache.LRU}}
	pass := func() {
		for name, g := range inputs {
			if _, err := Analyze(g, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	pass()
	if got := testing.AllocsPerRun(5, pass); got > 48 {
		t.Fatalf("Analyze of the three inputs allocated %.0f times, budget 48", got)
	}
}
