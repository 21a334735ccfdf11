package profile_test

import (
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
	"futurelocality/internal/sim"
)

// TestAnalyzeCacheModelEndToEnd drives the whole cache-cost pipeline from a
// live trace: profile a fib run, reconstruct, and check the report carries
// the footprint-replay verdict — primary cost, a populated extra-miss
// matrix, and the miss envelope granted only at the theorem's own
// future-first cell.
func TestAnalyzeCacheModelEndToEnd(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 16) })
	tr := rt.StopProfile()

	model := &core.CacheModel{Lines: 32, Kind: cache.LRU}
	rep, err := profile.Analyze(tr, profile.Options{P: 4, Trials: 3, CacheModel: model})
	if err != nil {
		t.Fatal(err)
	}
	cc := rep.Sim.CacheCost
	if cc == nil {
		t.Fatal("CacheCost missing with CacheModel set")
	}
	if !cc.Synthetic {
		t.Error("reconstructed traces carry no blocks; footprint must be synthetic")
	}
	if cc.SeqMisses <= 0 {
		t.Errorf("sequential misses = %d, want > 0", cc.SeqMisses)
	}
	wantEnv := int64(32) * (1 + 4*rep.Span*rep.Span)
	if cc.MissEnvelope != wantEnv {
		t.Errorf("MissEnvelope = %d, want %d", cc.MissEnvelope, wantEnv)
	}

	// The matrix: one cell per fork discipline, each with a miss account;
	// the miss envelope is granted at future-first and nowhere else, and the
	// future-first cell is billed against the primary's sequential replay.
	if len(rep.Matrix) != 2 || rep.Matrix[0].Fork != sim.FutureFirst || rep.Matrix[1].Fork != sim.ParentFirst {
		t.Fatalf("matrix = %+v, want a future-first and a parent-first cell", rep.Matrix)
	}
	if got := rep.Matrix[0].SeqMisses; got != cc.SeqMisses {
		t.Errorf("future-first cell billed against SeqMisses = %d, the primary against %d", got, cc.SeqMisses)
	}
	for _, cell := range rep.Matrix {
		theorem := cell.Fork == sim.FutureFirst
		if cell.SeqMisses <= 0 {
			t.Errorf("cell %s billed against SeqMisses = %d", cell.Fork, cell.SeqMisses)
		}
		if theorem && cell.MissBound != wantEnv {
			t.Errorf("theorem cell MissBound = %d, want %d", cell.MissBound, wantEnv)
		}
		if !theorem && cell.MissBound != 0 {
			t.Errorf("cell %s has MissBound %d, want 0 (outside the theorems)", cell.Fork, cell.MissBound)
		}
		if cell.MaxExtraMisses < 0 && cell.MeanExtraMisses > 0 {
			t.Errorf("cell %s inconsistent: mean %f max %d", cell.Fork, cell.MeanExtraMisses, cell.MaxExtraMisses)
		}
	}

	out := rep.String()
	for _, want := range []string{"cache cost model:", "extra misses", "extra-miss matrix"} {
		if !strings.Contains(out, want) {
			t.Errorf("report String() lacks %q", want)
		}
	}
}

// TestAnalyzeCacheModelPerJob checks the per-job split carries each job's
// own cache-cost verdict.
func TestAnalyzeCacheModelPerJob(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var jobs []runtime.Job[int]
	for i := 0; i < 3; i++ {
		j, err := runtime.Submit(rt, func(w *runtime.W) int { return fib(rt, w, 14) })
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		j.Wait()
	}
	tr := rt.StopProfile()

	rep, err := profile.Analyze(tr, profile.Options{
		P: 2, Trials: 2, NoMatrix: true,
		CacheModel: &core.CacheModel{Lines: 16, Kind: cache.LRU},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("got %d job verdicts, want 3", len(rep.Jobs))
	}
	for _, jr := range rep.Jobs {
		if jr.CacheCost == nil {
			t.Fatalf("job %d lacks a cache-cost verdict", jr.Job)
		}
		if jr.CacheCost.SeqMisses <= 0 {
			t.Errorf("job %d sequential misses = %d, want > 0", jr.Job, jr.CacheCost.SeqMisses)
		}
	}
}

// TestAnalyzeNoCacheModelNoCost pins the default: without a model, no cost
// section and a matrix free of miss fields.
func TestAnalyzeNoCacheModelNoCost(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(2))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 14) })
	rep, err := profile.Analyze(rt.StopProfile(), profile.Options{P: 2, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim.CacheCost != nil {
		t.Error("CacheCost present without a CacheModel")
	}
	for _, cell := range rep.Matrix {
		if cell.MeanExtraMisses != 0 || cell.MaxExtraMisses != 0 || cell.MissBound != 0 {
			t.Errorf("matrix cell carries miss fields without a model: %+v", cell)
		}
	}
	if strings.Contains(rep.String(), "cache cost model:") {
		t.Error("report String() renders a cache cost section without a model")
	}
}

// TestMatrixCellsAreOrdinaryReplays holds both matrix cells — the
// future-first one, which is filled from the primary rather than replayed,
// included — to an independent core.Analyze of the reconstructed DAG under
// the cell's fork discipline, trial i seeded Seed + i, with and without a
// cache model.
func TestMatrixCellsAreOrdinaryReplays(t *testing.T) {
	tr := jobTreesTrace(3)
	const p, trials, seed = 4, 3, 5
	for _, model := range []*core.CacheModel{nil, {Lines: 16, Kind: cache.LRU}} {
		with := "without a cache model"
		if model != nil {
			with = "with a cache model"
		}
		rep, err := profile.Analyze(tr, profile.Options{P: p, Trials: trials, Seed: seed, CacheModel: model})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Matrix) != 2 {
			t.Fatalf("matrix has %d cells, want one per fork discipline", len(rep.Matrix))
		}
		for _, got := range rep.Matrix {
			ref, err := core.Analyze(rep.Recon.Graph, core.AnalyzeOptions{P: p, Policy: got.Fork,
				Trials: trials, Seed: seed, CacheModel: model})
			if err != nil {
				t.Fatal(err)
			}
			want := profile.MatrixCell{Fork: got.Fork}
			want.DeviationBound = ref.DeviationBound
			var devs, steals int64
			for i, d := range ref.Deviations {
				devs += d
				steals += ref.Steals[i]
				want.MaxDeviations = max(want.MaxDeviations, d)
			}
			want.MeanDeviations = float64(devs) / trials
			want.MeanSteals = float64(steals) / trials
			if cc := ref.CacheCost; cc != nil {
				want.MeanExtraMisses, want.MaxExtraMisses = cc.MeanExtra(), cc.MaxExtra()
				want.MissBound, want.SeqMisses = cc.MissEnvelope, cc.SeqMisses
			}
			if got != want {
				t.Errorf("%s: cell %s\n  matrix %+v\n  replay %+v", with, got.Fork, got, want)
			}
		}
	}
}
