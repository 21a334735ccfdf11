//go:build !race

// Allocation budgets, excluded under -race (the race runtime adds its own
// allocations); CI runs them in its no-race pass.
package profile_test

import (
	"testing"

	"futurelocality/internal/core"
	"futurelocality/internal/profile"
)

// TestReconstructAllocBudget pins the dense replay: reconstructing a
// 12 793-event trace of 3 071 tasks allocates per graph — the index, the task
// and step tables, the builder's reserved tables, the graph's arrays — never
// per task. Per-task objects and maps took 11 062 allocations here.
func TestReconstructAllocBudget(t *testing.T) {
	tr := jobTreesTrace(8)
	got := testing.AllocsPerRun(5, func() {
		if _, err := profile.Reconstruct(tr); err != nil {
			t.Fatal(err)
		}
	})
	if got > 256 {
		t.Fatalf("Reconstruct of %d events allocated %.0f times, budget 256", tr.Len(), got)
	}
}

// TestProfileAnalyzeAllocBudget pins BenchmarkProfileAnalyze's pass — the pooled
// reconstruction, two jobs reconstructed from runs of the one trace, the primary
// replay and the one replayed matrix cell with a cache model — at what the
// analysis itself allocates. It took 22 890 allocations while reconstruction
// allocated per task and every job's sub-trace was copied out, and about 448
// while every sequential baseline ran on a new engine and every trial drew a
// new random source.
func TestProfileAnalyzeAllocBudget(t *testing.T) {
	tr := jobTreesTrace(8)
	opts := profile.Options{P: 4, Trials: 8, Seed: 7, CacheModel: &core.CacheModel{Lines: 64}}
	got := testing.AllocsPerRun(3, func() {
		if _, err := profile.Analyze(tr, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got > 320 {
		t.Fatalf("Analyze allocated %.0f times, budget 320", got)
	}
}
