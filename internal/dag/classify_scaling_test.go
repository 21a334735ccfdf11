package dag_test

import (
	"fmt"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

// TestClassifyCostScales pins Classify's growth by counting the edges its
// searches examine, not by a clock. Fib(16,2) has 6.9× the nodes of
// Fib(12,2); a classifier that sweeps the graph per fork examines ~47× the
// edges there (nodes × forks), one bounded by fork-to-touch ID distance
// stays near the node ratio.
func TestClassifyCostScales(t *testing.T) {
	small, large := graphs.Fib(12, 2), graphs.Fib(16, 2)
	_, ws := dag.ClassifyCost(small)
	_, wl := dag.ClassifyCost(large)
	t.Logf("Fib(12,2): %d nodes, %d edges walked; Fib(16,2): %d nodes, %d edges walked",
		small.Len(), ws, large.Len(), wl)
	if ws == 0 || wl > 8*ws {
		t.Fatalf("edges walked grew %d → %d (%.1f×) while nodes grew %.1f×; want at most 8×",
			ws, wl, float64(wl)/float64(ws), float64(large.Len())/float64(small.Len()))
	}
}

// TestClassifyLongChainIsLinear is the bound's worst case: one fork at the
// head of a 2 000-node chain, touched at the tail, so the searches must
// cover the whole graph — once each, not once per node.
func TestClassifyLongChainIsLinear(t *testing.T) {
	b := dag.NewBuilder()
	m := b.Main()
	f := m.Fork()
	f.Steps(3)
	m.Steps(2000)
	m.Touch(f)
	g := b.MustBuild()
	c, walked := dag.ClassifyCost(g)
	if !c.SingleTouch || !c.LocalTouch {
		t.Fatalf("chain classified %v (%v)", c, c.Violations)
	}
	if limit := int64(2 * g.Len()); walked > limit {
		t.Fatalf("walked %d edges on a %d-node chain with one fork, want at most %d", walked, g.Len(), limit)
	}
}

func BenchmarkClassify(b *testing.B) {
	fig6c, _ := graphs.Fig6c(4, 16, 4, true)
	// The random program usually stops far short of its node budget; take
	// the largest of the first 48 seeds.
	var randstruct *dag.Graph
	for seed := int64(0); seed < 48; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 3000, MaxDepth: 12})
		if randstruct == nil || g.Len() > randstruct.Len() {
			randstruct = g
		}
	}
	for _, in := range []struct {
		name string
		g    *dag.Graph
	}{
		{"fib12", graphs.Fib(12, 2)},
		{"fib16", graphs.Fib(16, 2)},
		{"fib20", graphs.Fib(20, 2)},
		{"randstruct", randstruct},
		{"fig6c", fig6c},
	} {
		b.Run(fmt.Sprintf("%s/nodes=%d", in.name, in.g.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				dag.Classify(in.g)
			}
		})
	}
}
