package core

import (
	"flag"
	"os"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// TestMain runs every test of the package under the replay check
// (ReplayCheckEnv): each schedule a cache model charges — converged, full or
// taken from the engine — is replayed the full way too, and any difference
// per worker or in total fails the analysis that made it. Benchmarks run
// without it.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		os.Setenv(ReplayCheckEnv, "1")
	}
	os.Exit(m.Run())
}

// TestConvergedReplayMatchesFull is the named exactness sweep: the
// benchmark's three inputs, every registered figure with and without its
// declared blocks, a few seeded random programs and a few that declare no
// more blocks than Figure 6(c)'s five, under both fork policies, through LRU
// and FIFO models from C = 1 up to the benchmark's 64, with windows below
// and at the default, each analysed under the replay check. The sweep must
// take each of the four paths — converged, counted (the footprint fits in a
// cache), full and the engine's own bill — somewhere, or it says nothing.
func TestConvergedReplayMatchesFull(t *testing.T) {
	t.Setenv(ReplayCheckEnv, "1")
	in := analysisInputs()
	inputs := []*dag.Graph{in["fib"], in["randstruct"], in["fig6c"]}
	for _, name := range figreg.Names() {
		for _, annotate := range []bool{false, true} {
			inst, err := figreg.Build(name, figreg.Spec{Annotate: annotate})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inputs = append(inputs, inst.Graph)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		inputs = append(inputs, graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 400, MaxDepth: 8}),
			graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 200, MaxDepth: 6, MaxBlocks: 5}))
	}
	var converged, fit, full, engine int
	for i, g := range inputs {
		for _, lines := range []int{1, 3, 8, 64} {
			for _, policy := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
				for _, kind := range []cache.Kind{cache.LRU, cache.FIFO} {
					model := &CacheModel{Lines: lines, Kind: kind, Window: 1 + i%lines, NoIdeal: true}
					if i%2 == 0 {
						model.Window = 0 // the default, C − 1
					}
					opts := AnalyzeOptions{P: 1 + i%4, Policy: policy, Trials: 3, Seed: int64(i), CacheModel: model}
					if i%3 == 0 {
						// The engine bills declared blocks itself.
						opts.CacheLines, opts.CacheKind = lines, kind
					}
					rep, err := Analyze(g, opts)
					if err != nil {
						t.Fatalf("input %d (%d nodes), %s, %s C=%d: %v", i, g.Len(), policy, kind, lines, err)
					}
					switch cc := rep.CacheCost; {
					case !cc.Synthetic && opts.CacheLines == lines:
						engine++
					case cc.seqMiss != nil:
						converged++
					case cache.SetConfig{Kind: kind, Lines: lines}.Fits(cc.fp):
						fit++
					default:
						full++
					}
				}
			}
		}
	}
	if converged == 0 || fit == 0 || full == 0 || engine == 0 {
		t.Fatalf("paths taken: converged %d, fit %d, full %d, engine %d; want each at least once", converged, fit, full, engine)
	}
}

// TestReplayCheckCatchesADifference: the check compares, it does not
// restate. A baseline whose per-node record is off by one miss makes the
// first schedule that converges fail its trial.
func TestReplayCheckCatchesADifference(t *testing.T) {
	t.Setenv(ReplayCheckEnv, "1")
	g := graphs.Fib(12, 2)
	cost, err := NewCacheCost(g, CacheModel{Lines: 8, NoIdeal: true}, sim.FutureFirst, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cost.seqMiss == nil {
		t.Fatal("Fib(12, 2) at C = 8 takes the full replay")
	}
	for v := range cost.seqMiss {
		cost.seqMiss[v]++
	}
	if _, err := RunTrials(g, sim.Config{P: 4}, 4, Seeded(1), cost); err == nil {
		t.Fatal("a converged replay charged from a wrong record passed the replay check")
	}
}

// TestReplayCheckReadPerAnalysis: the baseline is kept with the graph, the
// replay check is not. An analysis with the variable unset runs no check, so
// a wrong record it shares goes unseen; set before the next analysis of the
// same graph, the variable makes that analysis check, and fail.
func TestReplayCheckReadPerAnalysis(t *testing.T) {
	g := graphs.Fib(12, 2)
	opts := AnalyzeOptions{P: 4, Trials: 4, CacheModel: &CacheModel{Lines: 8, NoIdeal: true}}
	t.Setenv(ReplayCheckEnv, "")
	rep, err := Analyze(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	cc := rep.CacheCost
	if cc.check || cc.seqMiss == nil {
		t.Fatalf("unset variable: check %v; converged record kept: %v", cc.check, cc.seqMiss != nil)
	}
	for v := range cc.seqMiss {
		cc.seqMiss[v]++
	}
	if _, err := Analyze(g, opts); err != nil {
		t.Fatalf("an unchecked analysis failed: %v", err)
	}
	t.Setenv(ReplayCheckEnv, "1")
	if _, err := Analyze(g, opts); err == nil {
		t.Fatal("the variable set between two analyses of one graph, the second ran no check")
	}
}
