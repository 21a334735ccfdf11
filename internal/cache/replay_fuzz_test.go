package cache

import (
	"math/rand"
	"slices"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

// replayGraph builds one small graph for FuzzReplay: every second family
// declares its blocks, the others leave the footprint to be synthesized, and
// Fig6c and ForkJoinTree with a super final node give touch nodes that consume
// many threads.
func replayGraph(family, size uint8, seed int64) *dag.Graph {
	n, declare := int(size), family&1 == 1
	switch family / 2 % 6 {
	case 0:
		blocks := 0
		if declare {
			blocks = 1 + n%40
		}
		return graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 20 + 3*n, MaxDepth: 2 + n%8, MaxBlocks: blocks})
	case 1:
		return graphs.ForkJoinTree(n%6, 1+n%4, declare)
	case 2:
		return graphs.Fib(n%11, 2)
	case 3:
		g, _ := graphs.Pipeline(1+n%5, 1+n%9, 1+n%3, declare)
		return g
	case 4:
		g, _ := graphs.Fig6c(1+n%3, 1+n%5, 1+n%4, declare)
		return g
	default:
		return graphs.Quicksort(1+n%80, 1+n%6, seed, declare)
	}
}

// referenceFootprint is each node's access list in the identities the
// documentation gives them — a declared graph's own blocks; otherwise frame
// tid, window slot T + tid·w + (position mod w), then the frame of every
// thread the node touches, in g.Touches order — built the plain way, a slice
// per node.
func referenceFootprint(g *dag.Graph, w int) [][]dag.BlockID {
	out := make([][]dag.BlockID, g.Len())
	declared := false
	for v := range g.Nodes {
		if b := g.Nodes[v].Block; b != dag.NoBlock {
			declared = true
			out[v] = []dag.BlockID{b}
		}
	}
	if declared {
		return out
	}
	threads := g.NumThreads()
	for tid := 0; tid < threads; tid++ {
		k := 0
		for v := g.ThreadFirst[tid]; v != dag.None; v = g.Nodes[v].ContChild() {
			out[v] = []dag.BlockID{dag.BlockID(tid), dag.BlockID(threads + tid*w + k%w)}
			k++
		}
	}
	for _, ti := range g.Touches {
		out[ti.Node] = append(out[ti.Node], dag.BlockID(ti.FutureThread))
	}
	return out
}

// referenceReplay is Set.Replay on the reference models: a cache per worker
// and, with a shared tier, one per domain consulted on a private miss, fed
// the raw identities access by access.
func referenceReplay(cfg SetConfig, raw [][]dag.BlockID, order []dag.NodeID, who []int32) ReplayOutcome {
	priv := make([]Cache, cfg.P)
	for p := range priv {
		priv[p] = newReference(cfg.Kind, cfg.Lines)
	}
	var llc []Cache
	if cfg.LLCLines > 0 {
		llc = []Cache{newReference(cfg.Kind, cfg.LLCLines)}
		for _, d := range cfg.Domains {
			for len(llc) <= d {
				llc = append(llc, newReference(cfg.Kind, cfg.LLCLines))
			}
		}
	}
	for _, v := range order {
		p, d := int(who[v]), 0
		if cfg.Domains != nil {
			d = cfg.Domains[p]
		}
		for _, b := range raw[v] {
			if priv[p].Access(b) && llc != nil {
				llc[d].Access(b)
			}
		}
	}
	out := ReplayOutcome{Misses: make([]int64, cfg.P)}
	for p, c := range priv {
		out.Misses[p] = c.Misses()
		out.TotalMisses += c.Misses()
		out.Accesses += c.Accesses()
	}
	for _, c := range llc {
		out.LLCMisses += c.Misses()
	}
	return out
}

// FuzzReplay holds Set.Replay — dense ids, direct tables, the ring, reset by
// forgetting — to the reference models fed raw identities, for all four
// policies, with and without a shared tier and domains. One Set replays three
// footprints in a row, the middle one of another graph and so usually of
// another size, and each replay must be what a new set of reference caches
// makes of it: nothing may survive a Replay, in a table of any length. The
// footprint itself is checked on the way: its dense ids stand one-to-one for
// the documented identities.
func FuzzReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(5), uint8(3), uint8(0), uint8(3), uint8(0), uint8(3))     // lru, synthetic then declared
	f.Add(int64(2), uint8(4), uint8(9), uint8(2), uint8(4), uint8(1), uint8(0x25), uint8(0), uint8(1))   // fifo, window 3
	f.Add(int64(3), uint8(8), uint8(7), uint8(0), uint8(90), uint8(2), uint8(0x17), uint8(0), uint8(3))  // set-assoc over synthetic ids
	f.Add(int64(4), uint8(6), uint8(13), uint8(11), uint8(30), uint8(3), uint8(5), uint8(0), uint8(2))   // direct-mapped
	f.Add(int64(5), uint8(2), uint8(5), uint8(4), uint8(10), uint8(0), uint8(1), uint8(0x85), uint8(3))  // lru, shared tier, two domains
	f.Add(int64(6), uint8(10), uint8(33), uint8(8), uint8(2), uint8(1), uint8(2), uint8(0x07), uint8(2)) // fifo, one shared tier
	f.Add(int64(7), uint8(1), uint8(77), uint8(9), uint8(8), uint8(2), uint8(0x0b), uint8(0x93), uint8(3))
	f.Add(int64(8), uint8(4), uint8(10), uint8(4), uint8(2), uint8(0), uint8(0x3f), uint8(0), uint8(0)) // one worker; large then small
	f.Fuzz(func(t *testing.T, seed int64, fam1, size1, fam2, size2, kind, geometry, tier, procs uint8) {
		cfg := SetConfig{P: 1 + int(procs%4), Kind: Kinds[int(kind)%len(Kinds)], Lines: 1 + int(geometry&0xf)}
		w := 1 + int(geometry>>4)
		if tier&3 != 0 {
			cfg.LLCLines = 1 + int(tier>>2&0x1f)
			if tier&0x80 != 0 {
				for p := 0; p < cfg.P; p++ {
					cfg.Domains = append(cfg.Domains, p*2/cfg.P)
				}
			}
		}
		set, err := NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := replayGraph(fam1, size1, seed), replayGraph(fam2, size2, seed+1)
		r := rand.New(rand.NewSource(seed))
		for round, g := range []*dag.Graph{g1, g2, g1} {
			fp, raw := DeriveFootprint(g, w), referenceFootprint(g, w)
			dense := map[dag.BlockID]dag.BlockID{} // identity → dense id
			for v := range raw {
				ids := fp.Of(dag.NodeID(v))
				if len(ids) != len(raw[v]) {
					t.Fatalf("round %d node %d: %d accesses, reference %d", round, v, len(ids), len(raw[v]))
				}
				for i, id := range ids {
					if id < 0 || int(id) >= len(fp.raw) || fp.raw[id] != raw[v][i] {
						t.Fatalf("round %d node %d access %d: dense id %d of %d does not stand for block %d", round, v, i, id, len(fp.raw), raw[v][i])
					}
					if was, seen := dense[raw[v][i]]; seen && was != id {
						t.Fatalf("round %d: block %d has dense ids %d and %d", round, raw[v][i], was, id)
					}
					dense[raw[v][i]] = id
				}
			}
			if len(dense) != len(fp.raw) {
				t.Fatalf("round %d: %d dense ids for %d blocks in use", round, len(fp.raw), len(dense))
			}

			// Any order and any assignment will do: the caches do not know
			// what a legal schedule is.
			order := make([]dag.NodeID, g.Len())
			who := make([]int32, g.Len())
			for i, v := range r.Perm(g.Len()) {
				order[i], who[v] = dag.NodeID(v), int32(r.Intn(cfg.P))
			}
			got, want := set.Replay(fp, order, who), referenceReplay(cfg, raw, order, who)
			if !slices.Equal(got.Misses, want.Misses) || got.TotalMisses != want.TotalMisses ||
				got.LLCMisses != want.LLCMisses || got.Accesses != want.Accesses {
				t.Fatalf("round %d, %+v, w=%d, %d nodes, %d blocks:\n got %+v\nwant %+v",
					round, cfg, w, g.Len(), len(fp.raw), got, want)
			}
		}
	})
}
