package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

func TestAnalyzeForkJoin(t *testing.T) {
	g := graphs.ForkJoinTree(5, 4, true)
	rep, err := Analyze(g, AnalyzeOptions{P: 4, CacheLines: 16, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Class.SingleTouch {
		t.Fatalf("fork-join should be single-touch: %v", rep.Class.Violations)
	}
	if rep.DeviationBound != 4*rep.Span*rep.Span {
		t.Fatalf("bound = %d, want %d", rep.DeviationBound, 4*rep.Span*rep.Span)
	}
	if !rep.WithinBound() {
		t.Fatalf("deviations exceed Theorem 8 bound: %v vs %d", rep.Deviations, rep.DeviationBound)
	}
	if len(rep.Deviations) != 4 || len(rep.AdditionalMisses) != 4 {
		t.Fatalf("trial series lengths wrong: %d/%d", len(rep.Deviations), len(rep.AdditionalMisses))
	}
	for _, p := range rep.Premature {
		if p != 0 {
			t.Fatal("structured graph reported premature touches")
		}
	}
	if s := rep.String(); !strings.Contains(s, "bound") {
		t.Fatalf("report rendering missing bound: %s", s)
	}
}

func TestAnalyzeParentFirstNoBound(t *testing.T) {
	g := graphs.ForkJoinTree(3, 2, false)
	rep, err := Analyze(g, AnalyzeOptions{P: 2, Policy: sim.ParentFirst, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeviationBound != 0 {
		t.Fatal("parent-first must not claim the Theorem 8 bound")
	}
	if !rep.WithinBound() {
		t.Fatal("WithinBound must be vacuously true without a bound")
	}
}

func TestAnalyzeUnstructured(t *testing.T) {
	g, _ := graphs.Fig3(4, 2, false)
	rep, err := Analyze(g, AnalyzeOptions{P: 3, Trials: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class.Structured {
		t.Fatal("Fig3 must be unstructured")
	}
	if rep.DeviationBound != 0 {
		t.Fatal("unstructured graphs get no bound")
	}
}

func TestAnalyzeCustomControlRequiresOneTrial(t *testing.T) {
	g := graphs.ForkJoinTree(2, 2, false)
	_, err := Analyze(g, AnalyzeOptions{Control: sim.AlwaysActive{}, Trials: 3})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestCheckLemma4OnPaperFigures(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
	}{
		{"Fig4", graphs.Fig4()},
		{"Fig5a", graphs.Fig5a()},
		{"Fig5b", graphs.Fig5b()},
		{"ForkJoin", graphs.ForkJoinTree(4, 3, false)},
		{"Fib", graphs.Fib(9, 3)},
	}
	for _, tc := range cases {
		vs, err := CheckLemma4(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(vs) != 0 {
			t.Fatalf("%s: Lemma 4 violations: %v", tc.name, vs)
		}
	}
}

func TestCheckLemma4OnTheorem9Figures(t *testing.T) {
	g6a, _ := graphs.Fig6a(5, 3, true)
	g6b, _ := graphs.Fig6b(3, 2, false)
	for name, g := range map[string]*dag.Graph{"Fig6a": g6a, "Fig6b": g6b} {
		vs, err := CheckLemma4(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(vs) != 0 {
			t.Fatalf("%s: Lemma 4 violations: %v", name, vs)
		}
	}
}

func TestCheckLemma4RandomProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 250, MaxBlocks: 8})
		vs, err := CheckLemma4(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(vs) != 0 {
			t.Fatalf("seed %d: Lemma 4 violations on structured single-touch DAG: %v", seed, vs)
		}
	}
}

func TestCheckLemma11OnPipeline(t *testing.T) {
	g, _ := graphs.Pipeline(3, 4, 2, false)
	vs, err := CheckLemma11(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("Lemma 11 violations on a local-touch pipeline: %v", vs)
	}
}

func TestCheckLemma11OnSuperFinal(t *testing.T) {
	// Lemma 14: super final node variant.
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	f1 := m.Fork()
	f1.Steps(3)
	m.Steps(2)
	f2 := m.Fork()
	f2.Steps(2)
	m.Steps(2)
	m.Touch(f1)
	g, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatal(err)
	}
	vs, err := CheckLemma11(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("Lemma 14 violations: %v", vs)
	}
}

func TestBoundApplies(t *testing.T) {
	st := dag.Class{SingleTouch: true}
	if !BoundApplies(st, sim.FutureFirst, sim.RandomSingle) {
		t.Fatal("single-touch + future-first × random-single must get the bound")
	}
	if BoundApplies(st, sim.ParentFirst, sim.RandomSingle) {
		t.Fatal("parent-first never gets the bound")
	}
	if BoundApplies(st, sim.FutureFirst, sim.StealHalf) {
		t.Fatal("steal-half is outside the theorems' steal assumptions")
	}
	if BoundApplies(st, sim.FutureFirst, sim.LastVictimAffinity) {
		t.Fatal("victim affinity is outside the theorems' steal assumptions")
	}
	if BoundApplies(dag.Class{}, sim.FutureFirst, sim.RandomSingle) {
		t.Fatal("unstructured never gets the bound")
	}
	lt := dag.Class{LocalTouch: true}
	if !BoundApplies(lt, sim.FutureFirst, sim.RandomSingle) {
		t.Fatal("local-touch + future-first must get the bound (Theorem 12)")
	}
}

// analysisInputs are the three kinds of graph the benchmark's analyze
// workload analyses: future-parallel Fib, a random structured program (seed
// 60 stops at 3 043 nodes) and the paper's Figure 6(c).
func analysisInputs() map[string]*dag.Graph {
	fig6c, _ := graphs.Fig6c(4, 16, 4, true)
	return map[string]*dag.Graph{
		"fib":        graphs.Fib(16, 2),
		"randstruct": graphs.RandomStructured(60, graphs.RandomConfig{MaxNodes: 3000, MaxDepth: 12, MaxBlocks: 256}),
		"fig6c":      fig6c,
	}
}

// TestReportsIndependentOfGOMAXPROCS: trial i keeps seed i and nothing is
// reduced in arrival order, so a report — in-engine caches, a shared-LLC
// cache model and locality domains all on — is the same value and the same
// text however many Ps the trials fanned out over.
func TestReportsIndependentOfGOMAXPROCS(t *testing.T) {
	opts := AnalyzeOptions{P: 4, CacheLines: 64, Trials: 8, Seed: 7, Domains: []int{0, 0, 1, 1},
		CacheModel: &CacheModel{Lines: 64, LLCLines: 512}}
	for name, g := range analysisInputs() {
		var want *Report
		for _, procs := range []int{1, 2, 8} {
			withProcs(t, procs)
			got, err := Analyze(g, opts)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) || got.String() != want.String() {
				t.Errorf("%s: report at GOMAXPROCS=%d differs from the one at 1:\n%s\nvs\n%s", name, procs, got, want)
			}
		}
	}
}

// TestScratchReuseMatchesFresh: a trial's numbers do not depend on which
// scratch it drew from the process-wide free list or on what that scratch ran
// before. Analyses that differ in everything a scratch keeps — graph size up
// and down, declared and synthetic footprints, worker count, policy, C, a
// shared tier with and without domains, in-engine caches — are first run one
// at a time, each on an emptied free list, and then all at once from four
// goroutines over and over, every goroutine in its own order, on whatever the
// others put back.
func TestScratchReuseMatchesFresh(t *testing.T) {
	withProcs(t, 4)
	in := analysisInputs()
	small := graphs.ForkJoinTree(4, 2, true)
	cases := []struct {
		g    *dag.Graph
		opts AnalyzeOptions
	}{
		{in["fib"], AnalyzeOptions{P: 4, CacheLines: 64, Trials: 4, Seed: 7, CacheModel: &CacheModel{Lines: 64}}},
		{small, AnalyzeOptions{P: 2, Trials: 3, CacheModel: &CacheModel{Lines: 4, Kind: cache.FIFO, LLCLines: 16}}},
		{in["randstruct"], AnalyzeOptions{P: 4, Trials: 4, Domains: []int{0, 0, 1, 1},
			CacheModel: &CacheModel{Lines: 64, LLCLines: 512}}},
		{in["fig6c"], AnalyzeOptions{P: 3, CacheLines: 8, CacheKind: cache.FIFO, Trials: 3, Policy: sim.ParentFirst,
			CacheModel: &CacheModel{Lines: 8, Kind: cache.SetAssocLRU}}},
		{graphs.Fib(9, 2), AnalyzeOptions{P: 4, Trials: 4, Seed: 3, CacheModel: &CacheModel{Lines: 64}}},
		{small, AnalyzeOptions{P: 4, Trials: 2, CacheModel: &CacheModel{Lines: 4, Kind: cache.DirectMapped, Window: 2}}},
	}
	want := make([]*Report, len(cases))
	for i, c := range cases {
		scratches.Lock()
		scratches.free = nil
		scratches.Unlock()
		var err error
		if want[i], err = Analyze(c.g, c.opts); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range cases {
					i := (k + w + round) % len(cases)
					if w%2 == 1 {
						i = len(cases) - 1 - i
					}
					got, err := Analyze(cases[i].g, cases[i].opts)
					if err != nil {
						t.Errorf("case %d: %v", i, err)
					} else if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("case %d on a reused scratch:\n%s\non a new one:\n%s", i, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	scratches.Lock()
	defer scratches.Unlock()
	if n := len(scratches.free); n == 0 || n > 4 {
		t.Errorf("%d idle scratches after the run, want 1 to GOMAXPROCS = 4", n)
	}
}

// starve is a Control that never lets a processor act, and takes its time
// saying so.
type starve struct {
	sim.AlwaysActive
	delay time.Duration
}

func (s starve) Active(sim.ProcID, *sim.View) bool {
	time.Sleep(s.delay)
	return false
}

// TestRunTrialsReturnsLowestStuckTrial starves trials 3 and 5, trial 3 so
// slowly that with more than one P trial 5 gives up first. The error is
// trial 3's all the same, and the goroutines that ran the trials are gone
// when RunTrials returns.
func TestRunTrialsReturnsLowestStuckTrial(t *testing.T) {
	g := graphs.Fib(10, 2)
	seq, err := sim.Sequential(g, sim.FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		before := runtime.NumGoroutine()
		for round := 0; round < 5; round++ {
			_, err := RunTrials(g, sim.Config{P: 4, MaxIdleSweeps: 8}, seq, 8, func(i int) sim.Control {
				switch i {
				case 3:
					return starve{delay: 100 * time.Microsecond}
				case 5:
					return starve{}
				}
				return sim.NewRandomControl(int64(i))
			}, nil)
			if !errors.Is(err, sim.ErrStuck) || !strings.Contains(err.Error(), "trial 3:") {
				t.Fatalf("GOMAXPROCS=%d round %d: got %v, want trial 3's ErrStuck", procs, round, err)
			}
		}
		budgetReturned(t)
		// A helper signals that it is done a moment before it is gone.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines before, %d after", procs, before, runtime.NumGoroutine())
			}
		}
	}
}

// BenchmarkAnalyze is one Analyze of each benchmark input with the cache
// model on; read it under -cpu 1,2 for the fan-out's gain and its one-P cost.
// A b.N loop, not b.Loop: testing takes a b.Loop benchmark's first sample at
// whatever GOMAXPROCS the process was left at, not at the -cpu entry it
// prints beside it.
func BenchmarkAnalyze(b *testing.B) {
	inputs := analysisInputs()
	opts := AnalyzeOptions{P: 4, CacheLines: 64, Trials: 8, Seed: 7, CacheModel: &CacheModel{Lines: 64}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for name, g := range inputs {
			if _, err := Analyze(g, opts); err != nil {
				b.Fatalf("%s: %v", name, err)
			}
		}
	}
}
