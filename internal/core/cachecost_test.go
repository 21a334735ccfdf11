package core

import (
	"slices"
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

func TestParseCacheModel(t *testing.T) {
	cases := []struct {
		spec string
		want CacheModel
	}{
		{"64", CacheModel{Lines: 64, Kind: cache.LRU}},
		{"64,lru", CacheModel{Lines: 64, Kind: cache.LRU}},
		{"32,fifo,w=16", CacheModel{Lines: 32, Kind: cache.FIFO, Window: 16}},
		{"128,direct-mapped,llc=1024", CacheModel{Lines: 128, Kind: cache.DirectMapped, LLCLines: 1024}},
		{"8,set-assoc,noideal", CacheModel{Lines: 8, Kind: cache.SetAssocLRU, NoIdeal: true}},
		{"16, lru , w=3", CacheModel{Lines: 16, Kind: cache.LRU, Window: 3}},
	}
	for _, c := range cases {
		got, err := ParseCacheModel(c.spec)
		if err != nil {
			t.Errorf("ParseCacheModel(%q): %v", c.spec, err)
			continue
		}
		if *got != c.want {
			t.Errorf("ParseCacheModel(%q) = %+v, want %+v", c.spec, *got, c.want)
		}
	}
	for _, bad := range []string{"", "0", "-4", "x", "64,bogus", "64,w=0", "64,llc=x", "64,w="} {
		if _, err := ParseCacheModel(bad); err == nil {
			t.Errorf("ParseCacheModel(%q): expected error", bad)
		}
	}
}

func TestCacheModelWindowDefault(t *testing.T) {
	// The default window fills a private cache: frame + (C-1) window blocks.
	m := CacheModel{Lines: 64}
	if m.window() != 63 {
		t.Fatalf("window() = %d, want 63", m.window())
	}
	m = CacheModel{Lines: 1}
	if m.window() != 1 {
		t.Fatalf("window() = %d, want 1 floor", m.window())
	}
	m = CacheModel{Lines: 64, Window: 5}
	if m.window() != 5 {
		t.Fatalf("window() = %d, want explicit 5", m.window())
	}
}

func TestAnalyzeCacheCostEnvelope(t *testing.T) {
	g := graphs.ForkJoinTree(5, 4, false)
	model := &CacheModel{Lines: 16, Kind: cache.LRU}
	rep, err := Analyze(g, AnalyzeOptions{P: 4, Trials: 4, CacheModel: model})
	if err != nil {
		t.Fatal(err)
	}
	cc := rep.CacheCost
	if cc == nil {
		t.Fatal("CacheCost missing with CacheModel set")
	}
	if !cc.Synthetic {
		t.Error("expected synthetic footprint on a block-free graph")
	}
	if cc.SeqMisses <= 0 || cc.Blocks <= 0 {
		t.Errorf("degenerate cost: seq=%d blocks=%d", cc.SeqMisses, cc.Blocks)
	}
	if len(cc.ExtraMisses) != 4 || len(cc.TotalMisses) != 4 {
		t.Fatalf("want 4 trial entries, got extra=%d total=%d",
			len(cc.ExtraMisses), len(cc.TotalMisses))
	}
	// OPT never exceeds the online policy on the same trace.
	if cc.IdealMisses > cc.SeqMisses {
		t.Errorf("OPT %d > LRU %d on the sequential trace", cc.IdealMisses, cc.SeqMisses)
	}
	// Future-first × random-single on a covered class: the miss envelope is
	// C·(1+P·T∞²).
	want := int64(16) * (1 + 4*rep.Span*rep.Span)
	if cc.MissEnvelope != want {
		t.Errorf("MissEnvelope = %d, want %d", cc.MissEnvelope, want)
	}
	if !cc.WithinEnvelope() {
		t.Errorf("extra misses %v exceed envelope %d", cc.ExtraMisses, cc.MissEnvelope)
	}
	if !strings.Contains(rep.String(), "cache cost:") {
		t.Error("report String() lacks the cache cost section")
	}
}

func TestAnalyzeCacheCostNoEnvelopeOffTheoremCell(t *testing.T) {
	g := graphs.ForkJoinTree(5, 4, false)
	model := &CacheModel{Lines: 16, Kind: cache.LRU}
	// Same covered class, but a fork policy outside the theorems'
	// hypotheses: no miss envelope may be granted.
	rep, err := Analyze(g, AnalyzeOptions{
		P: 4, Trials: 2, Policy: sim.ParentFirst, CacheModel: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheCost.MissEnvelope != 0 {
		t.Errorf("MissEnvelope = %d at parent-first, want 0", rep.CacheCost.MissEnvelope)
	}
}

func TestAnalyzeCacheCostDeclaredBlocks(t *testing.T) {
	// A graph with declared blocks uses them verbatim — no synthetic frames.
	g := graphs.RandomStructured(3, graphs.RandomConfig{MaxNodes: 120, MaxBlocks: 6})
	rep, err := Analyze(g, AnalyzeOptions{
		P: 2, Trials: 2, CacheModel: &CacheModel{Lines: 4, Kind: cache.LRU},
	})
	if err != nil {
		t.Fatal(err)
	}
	cc := rep.CacheCost
	if cc.Synthetic {
		t.Fatal("expected declared footprint")
	}
	if cc.Blocks <= 0 || cc.Blocks > 6 {
		t.Errorf("Blocks = %d, want 1..6 declared blocks", cc.Blocks)
	}
}

// TestZeroDeviationsZeroExtraMisses is the property the whole pipeline rests
// on: a schedule with zero deviations is, by Spoonhower's definition, the
// sequential execution itself (node for node, on one worker), so it pays
// exactly the sequential miss bill — zero extra misses under every
// replacement policy, synthetic and declared footprints alike.
func TestZeroDeviationsZeroExtraMisses(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, blocks := range []int{0, 8} { // synthetic and declared modes
			g := graphs.RandomStructured(seed, graphs.RandomConfig{
				MaxNodes: 250, MaxBlocks: blocks,
			})
			for _, kind := range cache.Kinds {
				model := &CacheModel{Lines: 8, Kind: kind, Window: 4}
				// P = 1: no thief exists, so every trial is deviation-free.
				rep, err := Analyze(g, AnalyzeOptions{
					P: 1, Trials: 2, Seed: seed, CacheModel: model,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range rep.Deviations {
					if d != 0 {
						t.Fatalf("seed %d kind %s: P=1 trial %d has %d deviations", seed, kind, i, d)
					}
					if e := rep.CacheCost.ExtraMisses[i]; e != 0 {
						t.Errorf("seed %d kind %s: zero-deviation trial %d has %d extra misses",
							seed, kind, i, e)
					}
				}
				// P = 4: trials may deviate, but any that happen not to must
				// still pay exactly the sequential bill.
				rep, err = Analyze(g, AnalyzeOptions{
					P: 4, Trials: 4, Seed: seed, CacheModel: model,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range rep.Deviations {
					if d == 0 && rep.CacheCost.ExtraMisses[i] != 0 {
						t.Errorf("seed %d kind %s: zero-deviation trial %d has %d extra misses",
							seed, kind, i, rep.CacheCost.ExtraMisses[i])
					}
				}
			}
		}
	}
}

// TestDeclaredBillIsTheEnginesOwn: when the model's caches are the engine's
// — declared blocks, the same kind and C, no shared tier — the cost verdict
// takes the engine's bills instead of replaying each schedule again, so the
// report's additional misses and the verdict's extra misses are one count,
// sequential baseline included. A model of another C replays.
func TestDeclaredBillIsTheEnginesOwn(t *testing.T) {
	g := analysisInputs()["randstruct"]
	opts := AnalyzeOptions{P: 4, CacheLines: 64, Trials: 4, Seed: 7, CacheModel: &CacheModel{Lines: 64}}
	rep, err := Analyze(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	cc := rep.CacheCost
	if cc.Synthetic || cc.seqMiss != nil || cc.SeqMisses != rep.SeqMisses || !slices.Equal(cc.ExtraMisses, rep.AdditionalMisses) {
		t.Fatalf("engine-billed model: sequential %d against %d, extra %v against additional %v",
			cc.SeqMisses, rep.SeqMisses, cc.ExtraMisses, rep.AdditionalMisses)
	}
	opts.CacheModel = &CacheModel{Lines: 32}
	if rep, err = Analyze(g, opts); err != nil {
		t.Fatal(err)
	}
	if rep.CacheCost.seqMiss == nil {
		t.Fatal("a model of C = 32 against the engine's 64 took no replay of its own")
	}
}

// TestRunTrialsRefusesAnotherPolicysBaseline: a converged replay reads the
// sequential order of the baseline and of the trials' SeqPred as one, so a
// cost measured against one fork policy's sequential execution is refused
// for trials measured against the other's.
func TestRunTrialsRefusesAnotherPolicysBaseline(t *testing.T) {
	g := graphs.Fib(10, 2)
	var cost *CacheCost
	err := WithSequential(g, sim.FutureFirst, 0, cache.LRU, func(seq *sim.Result) error {
		base, err := NewCacheBaseline(g, CacheModel{Lines: 8, NoIdeal: true}, nil, seq)
		cost = base.Cost(2, 2, dag.Classify(g), sim.ParentFirst)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = WithSequential(g, sim.ParentFirst, 0, cache.LRU, func(seq *sim.Result) error {
		_, err := RunTrials(g, sim.Config{P: 2, Policy: sim.ParentFirst}, seq, 2, Seeded(1), cost)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "future-first") {
		t.Fatalf("RunTrials against a parent-first execution with a future-first baseline: %v", err)
	}
}
