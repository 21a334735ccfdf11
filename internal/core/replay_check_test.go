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
// declared blocks and a few seeded random programs, under both fork
// policies, through LRU models from C = 1 up to the benchmark's 64, with
// windows below and at the default, each analysed under the replay check.
// The sweep must take each of the three paths — converged, full and the
// engine's own bill — somewhere, or it says nothing.
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
		inputs = append(inputs, graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 400, MaxDepth: 8}))
	}
	var converged, full, engine int
	for i, g := range inputs {
		for _, lines := range []int{1, 3, 8, 64} {
			for _, policy := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
				model := &CacheModel{Lines: lines, Window: 1 + i%lines, NoIdeal: true}
				if i%2 == 0 {
					model.Window = 0 // the default, C − 1
				}
				opts := AnalyzeOptions{P: 1 + i%4, Policy: policy, Trials: 3, Seed: int64(i), CacheModel: model}
				if i%3 == 0 {
					opts.CacheLines = lines // the engine bills declared blocks itself
				}
				rep, err := Analyze(g, opts)
				if err != nil {
					t.Fatalf("input %d (%d nodes), %s, C=%d: %v", i, g.Len(), policy, lines, err)
				}
				switch cc := rep.CacheCost; {
				case cc.seqMiss != nil:
					converged++
				case !cc.Synthetic && opts.CacheLines == lines:
					engine++
				default:
					full++
				}
			}
		}
	}
	if converged == 0 || full == 0 || engine == 0 {
		t.Fatalf("paths taken: converged %d, full %d, engine %d; want each at least once", converged, full, engine)
	}
}

// TestReplayCheckCatchesADifference: the check compares, it does not
// restate. A baseline whose per-node record is off by one miss makes the
// first schedule that converges fail its trial.
func TestReplayCheckCatchesADifference(t *testing.T) {
	t.Setenv(ReplayCheckEnv, "1")
	g := graphs.Fib(12, 2)
	err := WithSequential(g, sim.FutureFirst, 0, cache.LRU, func(seq *sim.Result) error {
		base, err := NewCacheBaseline(g, CacheModel{Lines: 8, NoIdeal: true}, nil, seq)
		if err != nil {
			return err
		}
		if base.seqMiss == nil {
			t.Fatal("Fib(12, 2) at C = 8 takes the full replay")
		}
		for v := range base.seqMiss {
			base.seqMiss[v]++
		}
		_, err = RunTrials(g, sim.Config{P: 4}, seq, 4, Seeded(1), base.Cost(4, 4, dag.Classify(g), sim.FutureFirst))
		return err
	})
	if err == nil {
		t.Fatal("a converged replay charged from a wrong record passed the replay check")
	}
}
