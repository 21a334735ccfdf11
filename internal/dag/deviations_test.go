package dag_test

import (
	"slices"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
)

// deviationNodesReference is the definition as it was first written: build
// the predecessor table, collect the nodes, take the length. The counting
// path (sim.SeqPred.Deviations) builds no node list and shares the table
// between trials; it and sim.DeviationNodes are held to this.
func deviationNodesReference(seqOrder []dag.NodeID, r *sim.Result) []dag.NodeID {
	seqPred := make([]dag.NodeID, len(r.When))
	for i := range seqPred {
		seqPred[i] = dag.None
	}
	for i := 1; i < len(seqOrder); i++ {
		seqPred[seqOrder[i]] = seqOrder[i-1]
	}
	var out []dag.NodeID
	for _, order := range r.Order {
		for i, v := range order {
			pred := seqPred[v]
			if pred == dag.None {
				if i != 0 && len(seqOrder) > 0 && seqOrder[0] == v {
					out = append(out, v)
				}
				continue
			}
			if i == 0 || order[i-1] != pred {
				out = append(out, v)
			}
		}
	}
	return out
}

// TestDeviationCountMatchesNodes: on every generator family — plain, with a
// super final node, with a promise touch — under both fork policies and one
// SeqPred per baseline shared by all its trials, the count equals the node
// list's length and the node list is the reference's.
func TestDeviationCountMatchesNodes(t *testing.T) {
	for i, g := range codecSeeds(t) {
		for _, fork := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
			seq, err := sim.Sequential(g, fork, 0, cache.LRU)
			if err != nil {
				t.Fatal(err)
			}
			seqOrder := seq.SeqOrder()
			shared := sim.NewSeqPred(seqOrder, g.Len())
			for trial, steal := range sim.StealPolicies {
				eng, err := sim.New(g, sim.Config{P: 2 + trial, Policy: fork, Steal: steal,
					Control: sim.NewRandomControl(int64(i + trial))})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				want := deviationNodesReference(seqOrder, res)
				if got := sim.DeviationNodes(seqOrder, res); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s × %s: DeviationNodes = %v, reference %v", i, fork, steal, got, want)
				}
				if n, m := shared.Deviations(res), sim.Deviations(seqOrder, res); n != int64(len(want)) || m != n {
					t.Fatalf("seed %d %s × %s: counted %d (shared table) and %d, reference lists %d",
						i, fork, steal, n, m, len(want))
				}
			}
		}
	}
}
