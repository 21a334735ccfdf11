package dag_test

import (
	"fmt"
	"slices"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// withBlocks returns g when it declares blocks and otherwise a copy that
// does: node i accesses one of about a third as many blocks as there are
// nodes, every fifth node none, so that a small cache both hits and misses.
func withBlocks(g *dag.Graph) *dag.Graph {
	for i := range g.Nodes {
		if g.Nodes[i].Block != dag.NoBlock {
			return g
		}
	}
	c := *g
	c.Nodes = slices.Clone(g.Nodes)
	for i := range c.Nodes {
		if i%5 != 4 {
			c.Nodes[i].Block = dag.BlockID(i * 7 % (len(c.Nodes)/3 + 2))
		}
	}
	return &c
}

// TestMissAccountsAgree: the tree counts a schedule's misses twice — the
// engine's own caches, fed each node's declared block as it executes
// (sim.Result.Misses), and cache.Set.Replay of the finished schedule over the
// graph's footprint — and in declared mode the two are one account. Every
// figreg figure and every generator family, LRU and FIFO, random controls at
// P = 1, 2 and 4 and each figure's adversary script at its own P: per worker,
// the same count.
func TestMissAccountsAgree(t *testing.T) {
	type subject struct {
		name string
		g    *dag.Graph
		fork sim.ForkPolicy
		// script, when non-nil, returns the figure's adversary control (a
		// script is spent by one run) for procs processors.
		script func() sim.Control
		procs  int
	}
	var subjects []subject
	for _, name := range figreg.Names() {
		build := func() *figreg.Instance {
			inst, err := figreg.Build(name, figreg.Spec{Annotate: true})
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}
		inst := build()
		s := subject{name: name, g: withBlocks(inst.Graph), fork: inst.Policy}
		if inst.Script != nil {
			s.script, s.procs = func() sim.Control { return build().Script }, inst.Procs
		}
		subjects = append(subjects, s)
	}
	for kind := uint8(0); kind < numFamilies; kind++ {
		subjects = append(subjects, subject{
			name: fmt.Sprintf("family %d", kind), g: withBlocks(family(kind, 5, 3, int64(kind))),
			fork: sim.ForkPolicy(kind % 2),
		})
	}
	// The random generator usually stops far short of its node budget; a few
	// more seeds, so that some of its programs are large.
	for seed := int64(1); seed <= 8; seed++ {
		subjects = append(subjects, subject{
			name: fmt.Sprintf("random seed %d", seed), fork: sim.ForkPolicy(seed % 2),
			g: withBlocks(graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 600, MaxDepth: 10, MaxBlocks: 24})),
		})
	}

	var order []dag.NodeID
	var who []int32
	for _, s := range subjects {
		fp := cache.DeriveFootprint(s.g, 1)
		if fp.Synthetic {
			t.Fatalf("%s: footprint is synthetic", s.name)
		}
		for _, kind := range []cache.Kind{cache.LRU, cache.FIFO} {
			for _, lines := range []int{3, 8} {
				type run struct {
					p       int
					control sim.Control
				}
				runs := []run{{1, sim.NewRandomControl(1)}, {2, sim.NewRandomControl(2)}, {4, sim.NewRandomControl(3)}}
				if s.script != nil {
					runs = append(runs, run{s.procs, s.script()})
				}
				for _, r := range runs {
					eng, err := sim.New(s.g, sim.Config{P: r.p, Policy: s.fork, Control: r.control,
						CacheLines: lines, CacheKind: kind})
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.Run()
					if err != nil {
						t.Fatalf("%s P=%d: %v", s.name, r.p, err)
					}
					order = slices.Grow(order[:0], len(res.When))[:len(res.When)]
					who = slices.Grow(who[:0], len(res.Who))[:len(res.Who)]
					for v, w := range res.When {
						order[w], who[v] = dag.NodeID(v), int32(res.Who[v])
					}
					set, err := cache.NewSet(cache.SetConfig{P: r.p, Kind: kind, Lines: lines})
					if err != nil {
						t.Fatal(err)
					}
					if out := set.Replay(fp, order, who); !slices.Equal(out.Misses, res.Misses) {
						t.Errorf("%s %s C=%d P=%d (%T): engine misses %v, replay %v",
							s.name, kind, lines, r.p, r.control, res.Misses, out.Misses)
					}
				}
			}
		}
	}
}
