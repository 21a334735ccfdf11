package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

// The per-processor reference: the analyses as they were defined while a
// Result kept one order per processor. Each processor's order is rebuilt from
// (When, Who), and the definitions below walk those orders; the code under
// test walks the one execution sequence with a last-node table per processor.

// referenceOrders rebuilds each processor's own execution order.
func referenceOrders(r *Result) [][]dag.NodeID {
	byWhen := make([]dag.NodeID, len(r.When))
	for v, w := range r.When {
		byWhen[w] = dag.NodeID(v)
	}
	orders := make([][]dag.NodeID, r.P)
	for _, v := range byWhen {
		orders[r.Who[v]] = append(orders[r.Who[v]], v)
	}
	return orders
}

// referenceDeviationNodes is DeviationNodes over per-processor orders,
// processor by processor.
func referenceDeviationNodes(seqOrder []dag.NodeID, r *Result) []dag.NodeID {
	pred := make([]dag.NodeID, len(r.When))
	for i := range pred {
		pred[i] = dag.None
	}
	for i := 1; i < len(seqOrder); i++ {
		pred[seqOrder[i]] = seqOrder[i-1]
	}
	var out []dag.NodeID
	for _, order := range referenceOrders(r) {
		for i, v := range order {
			if p := pred[v]; p != dag.None {
				if i == 0 || order[i-1] != p {
					out = append(out, v)
				}
			} else if i != 0 && v == seqOrder[0] {
				out = append(out, v)
			}
		}
	}
	return out
}

// referenceBlockTrace is BlockTrace over processor p's order.
func referenceBlockTrace(g *dag.Graph, r *Result, p ProcID) []dag.BlockID {
	order := referenceOrders(r)[p]
	out := make([]dag.BlockID, len(order))
	for i, v := range order {
		out[i] = g.Nodes[v].Block
	}
	return out
}

// referenceCSV is WriteCSV over per-processor orders: a row per node with its
// local index, sorted into global order.
func referenceCSV(g *dag.Graph, r *Result) string {
	type row struct {
		when  int32
		proc  int
		node  dag.NodeID
		local int
	}
	var rows []row
	for p, order := range referenceOrders(r) {
		for i, v := range order {
			rows = append(rows, row{r.When[v], p, v, i})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].when < rows[j].when })
	var sb strings.Builder
	sb.WriteString("order,proc,node,thread,block,local_index\n")
	for _, rr := range rows {
		n := &g.Nodes[rr.node]
		blk := n.Block
		if blk != dag.NoBlock {
			blk = g.RawBlocks[blk]
		}
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d\n", rr.when, rr.proc, rr.node, n.Thread, blk, rr.local)
	}
	return sb.String()
}

// referenceMisses replays each processor's order alone through a cache of
// its own, as the engine did before it replayed the schedule through one set
// of P.
func referenceMisses(t *testing.T, g *dag.Graph, r *Result, cfg Config) []int64 {
	t.Helper()
	out := make([]int64, r.P)
	if len(g.RawBlocks) == 0 {
		return out
	}
	fp := cache.DeriveFootprint(g, 1)
	for p, order := range referenceOrders(r) {
		set, err := cache.NewSet(cache.SetConfig{P: 1, Kind: cfg.CacheKind, Lines: cfg.CacheLines})
		if err != nil {
			t.Fatal(err)
		}
		out[p] = set.Replay(fp, order, nil).TotalMisses
	}
	return out
}

// TestScheduleMatchesPerProcessorReference holds Deviations, DeviationNodes,
// BlockTrace, WriteCSV and the in-engine miss count to the per-processor
// reference, and Validate to every schedule, on seeded RandomStructured, Fib,
// Fig6c and the central-queue ablation, under both fork policies at P = 1, 2
// and 4. DeviationNodes lists in execution order, the reference processor by
// processor, so the reference's list is put in execution order first.
func TestScheduleMatchesPerProcessorReference(t *testing.T) {
	fig6c, _ := graphs.Fig6c(2, 8, 4, true)
	inputs := map[string]*dag.Graph{
		"fib":   graphs.Fib(10, 2),
		"fig6c": fig6c,
	}
	for seed := int64(1); seed <= 3; seed++ {
		inputs[fmt.Sprintf("random%d", seed)] = graphs.RandomStructured(seed,
			graphs.RandomConfig{MaxNodes: 400, MaxDepth: 8, MaxBlocks: 16})
	}
	var eng Engine
	for name, g := range inputs {
		for _, central := range []bool{false, true} {
			for _, fork := range []ForkPolicy{FutureFirst, ParentFirst} {
				seq, err := Sequential(g, fork, 8, cache.LRU)
				if err != nil {
					t.Fatal(err)
				}
				seqOrder := seq.SeqOrder()
				sp := NewSeqPred(seqOrder, g.Len())
				for _, p := range []int{1, 2, 4} {
					what := fmt.Sprintf("%s central=%v %s P=%d", name, central, fork, p)
					cfg := Config{P: p, Policy: fork, CentralQueue: central, CacheLines: 8,
						Control: NewRandomControl(int64(p) + 10)}
					if err := eng.Reset(g, cfg); err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run()
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if err := res.Validate(g); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want := referenceDeviationNodes(seqOrder, res)
					slices.SortFunc(want, func(a, b dag.NodeID) int { return cmp.Compare(res.When[a], res.When[b]) })
					if got := DeviationNodes(seqOrder, res); !slices.Equal(got, want) {
						t.Fatalf("%s: DeviationNodes = %v, reference %v", what, got, want)
					}
					if got := sp.Deviations(res); got != int64(len(want)) {
						t.Fatalf("%s: Deviations = %d, reference %d", what, got, len(want))
					}
					for q := ProcID(0); int(q) < p; q++ {
						if got, want := BlockTrace(g, res, q), referenceBlockTrace(g, res, q); !slices.Equal(got, want) {
							t.Fatalf("%s: BlockTrace(%d) = %v, reference %v", what, q, got, want)
						}
					}
					var csv strings.Builder
					if err := WriteCSV(&csv, g, res); err != nil {
						t.Fatal(err)
					}
					if got, want := csv.String(), referenceCSV(g, res); got != want {
						t.Fatalf("%s: WriteCSV\n%s\nreference\n%s", what, got, want)
					}
					wantMisses := referenceMisses(t, g, res, cfg)
					var total int64
					for _, m := range wantMisses {
						total += m
					}
					if !slices.Equal(res.Misses, wantMisses) || res.TotalMisses != total {
						t.Fatalf("%s: misses %v (total %d), reference %v (total %d)",
							what, res.Misses, res.TotalMisses, wantMisses, total)
					}
				}
			}
		}
	}
}
