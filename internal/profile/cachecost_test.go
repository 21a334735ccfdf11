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
// future-first × random-single cell.
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

	// The matrix: every cell carries a miss account, the miss envelope is
	// granted at future-first × random-single and nowhere else, and a row's
	// four cells are billed against one sequential replay — the primary's,
	// in the primary's row.
	if len(rep.Matrix) == 0 {
		t.Fatal("matrix missing")
	}
	rowSeq := map[sim.ForkPolicy]int64{sim.FutureFirst: cc.SeqMisses}
	for _, cell := range rep.Matrix {
		if want, ok := rowSeq[cell.Fork]; !ok {
			rowSeq[cell.Fork] = cell.SeqMisses
		} else if cell.SeqMisses != want || want <= 0 {
			t.Errorf("cell %s × %s billed against SeqMisses = %d, its row against %d",
				cell.Fork, cell.Steal, cell.SeqMisses, want)
		}
		theorem := cell.Fork == sim.FutureFirst && cell.Steal == sim.RandomSingle
		if theorem && cell.MissBound != wantEnv {
			t.Errorf("theorem cell MissBound = %d, want %d", cell.MissBound, wantEnv)
		}
		if !theorem && cell.MissBound != 0 {
			t.Errorf("cell %s × %s has MissBound %d, want 0 (outside the theorems)",
				cell.Fork, cell.Steal, cell.MissBound)
		}
		if cell.MaxExtraMisses < 0 && cell.MeanExtraMisses > 0 {
			t.Errorf("cell %s × %s inconsistent: mean %f max %d",
				cell.Fork, cell.Steal, cell.MeanExtraMisses, cell.MaxExtraMisses)
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

// TestMatrixPrimaryCellIsTheReplay pins the one shortcut the matrix takes:
// the cell of the primary prediction's own policy pair is read off the
// primary report, not replayed. A second analysis of the same trace whose
// primary is a different pair has to replay that cell for real; the two
// readings must agree in every column, and every other cell with them.
func TestMatrixPrimaryCellIsTheReplay(t *testing.T) {
	rt := runtime.New(runtime.WithWorkers(4))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 14) })
	tr := rt.StopProfile()

	model := &core.CacheModel{Lines: 16, Kind: cache.LRU}
	for _, fork := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
		opts := profile.Options{P: 4, Trials: 3, Seed: 5, Policy: fork, CacheModel: model, NoJobs: true}
		filled, err := profile.Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Steal = sim.StealHalf
		replayed, err := profile.Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(filled.Matrix) != len(replayed.Matrix) || len(filled.Matrix) == 0 {
			t.Fatalf("matrix sizes %d and %d", len(filled.Matrix), len(replayed.Matrix))
		}
		for i, want := range replayed.Matrix {
			if got := filled.Matrix[i]; got != want {
				t.Errorf("primary %s: cell %s × %s\n  filled   %+v\n  replayed %+v", fork, want.Fork, want.Steal, got, want)
			}
		}
	}
}
