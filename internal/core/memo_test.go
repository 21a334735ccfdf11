package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
	"futurelocality/internal/sim"
)

// TestGraphFactsComputedOnce counts the facts a graph's memo computed — each
// cell once, by its sync.Once — after repeated analyses of one graph and four
// goroutines analysing it at once: the benchmark's options with and without
// the OPT bill, under both fork policies. Each fact is computed once per
// graph and key: one sequential execution and one cache baseline per fork
// policy — the engine's caches are the model's, so the engine's sequential
// bill is that baseline's, and NoIdeal is not part of the key — and one
// footprint. Every report of a policy is the same.
func TestGraphFactsComputedOnce(t *testing.T) {
	g := analysisInputs()["randstruct"]
	withIdeal := AnalyzeOptions{P: 4, CacheLines: 64, Trials: 4, Seed: 7, CacheModel: &CacheModel{Lines: 64}}
	noIdeal := withIdeal
	noIdeal.CacheModel = &CacheModel{Lines: 64, NoIdeal: true}
	var mu sync.Mutex
	first := map[sim.ForkPolicy]*Report{}
	analyse := func(opts AnalyzeOptions, policy sim.ForkPolicy) {
		opts.Policy = policy
		rep, err := Analyze(g, opts)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if want := first[policy]; want == nil {
			first[policy] = rep
		} else if !reflect.DeepEqual(rep.Deviations, want.Deviations) || rep.CacheCost.cacheBaseline != want.CacheCost.cacheBaseline {
			t.Errorf("%s: a second analysis differs: deviations %v against %v", policy, rep.Deviations, want.Deviations)
		}
	}
	for _, policy := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
		for range 3 {
			analyse(withIdeal, policy)
			analyse(noIdeal, policy)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, policy := range []sim.ForkPolicy{sim.ParentFirst, sim.FutureFirst} {
				analyse(withIdeal, policy)
				analyse(noIdeal, policy)
			}
		}()
	}
	wg.Wait()
	got := map[string]int{}
	for _, k := range dag.MemoKeys(g) {
		got[fmt.Sprintf("%T", k)]++
	}
	want := map[string]int{"core.seqKey": 2, "core.baselineKey": 2, "cache.footprintKey": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facts computed into the graph's memo: %v, want %v", got, want)
	}
}

// TestSequentialOrderFromPredecessors: the graph keeps its sequential order
// only as each node's predecessor, and a baseline walks it back from the
// final node; the walk must give sim.Sequential's order on every registered
// figure, the analysis inputs and a graph with a super final node, under
// both fork policies.
func TestSequentialOrderFromPredecessors(t *testing.T) {
	var inputs []*dag.Graph
	for _, g := range analysisInputs() {
		inputs = append(inputs, g)
	}
	for _, name := range figreg.Names() {
		inst, err := figreg.Build(name, figreg.Spec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inputs = append(inputs, inst.Graph)
	}
	// Side-effect futures: every other future is closed by the super final
	// node alone.
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	for i := 0; i < 6; i++ {
		f := m.Fork()
		f.Steps(3)
		m.Step()
		if i%2 == 0 {
			m.Touch(f)
		}
	}
	sf, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, sf)
	for i, g := range inputs {
		for _, policy := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
			seq, err := sequentialOf(g, policy)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Sequential(g, policy, 0, cache.LRU)
			if err != nil {
				t.Fatal(err)
			}
			if got := seq.order(g, nil); !slices.Equal(got, want.Order) {
				t.Fatalf("input %d (%d nodes, super final %v), %s: the order walked back differs from sim.Sequential's",
					i, g.Len(), g.SuperFinal, policy)
			}
		}
	}
}
