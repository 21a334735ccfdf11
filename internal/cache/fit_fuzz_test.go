package cache

import (
	"math/rand"
	"slices"
	"testing"

	"futurelocality/internal/dag"
)

// FuzzFitReplay holds ReplayFit, which counts each worker's distinct blocks,
// to Replay, which simulates every access, worker by worker, for LRU and
// FIFO: FuzzReplay's graph families, synthetic or declared, any order and
// assignment of their nodes, on one to four workers whose caches hold every
// block of each footprint, and at most a few more. One set of each kind
// replays three footprints in a row, the middle one of another graph and so
// usually of another size, so no stamp may survive a counting replay.
func FuzzFitReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(10), uint8(3), uint8(5), uint8(0), uint8(0x10), uint8(3))   // lru, synthetic then declared
	f.Add(int64(2), uint8(9), uint8(4), uint8(2), uint8(0), uint8(1), uint8(0x00), uint8(1))    // fifo, Fig6c then a fork-join tree, no spare line
	f.Add(int64(3), uint8(4), uint8(7), uint8(1), uint8(90), uint8(0), uint8(0x27), uint8(0))   // one worker
	f.Add(int64(4), uint8(6), uint8(13), uint8(11), uint8(30), uint8(1), uint8(0x05), uint8(2)) // pipeline then quicksort
	f.Fuzz(func(t *testing.T, seed int64, fam1, size1, fam2, size2, kind, geometry, procs uint8) {
		w := 1 + int(geometry>>4&7)
		g1, g2 := replayGraph(fam1, size1, seed), replayGraph(fam2, size2, seed+1)
		graphs := []*dag.Graph{g1, g2, g1}
		fps := make([]*Footprint, len(graphs))
		lines := 1
		for i, g := range graphs {
			fps[i] = DeriveFootprint(g, w)
			lines = max(lines, len(fps[i].raw))
		}
		cfg := SetConfig{P: 1 + int(procs%4), Kind: []Kind{LRU, FIFO}[kind&1], Lines: lines + int(geometry&0xf)}
		fit, err := NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for round, g := range graphs {
			fp := fps[round]
			if !cfg.Fits(fp) {
				t.Fatalf("round %d: %+v does not fit %d blocks", round, cfg, len(fp.raw))
			}
			order := make([]dag.NodeID, g.Len())
			who := make([]int32, g.Len())
			for i, v := range r.Perm(g.Len()) {
				order[i], who[v] = dag.NodeID(v), int32(r.Intn(cfg.P))
			}
			if cfg.P == 1 {
				who = nil // the sequential form
			}
			got, want := fit.ReplayFit(fp, order, who), full.Replay(fp, order, who)
			if !slices.Equal(got.Misses, want.Misses) || got.TotalMisses != want.TotalMisses ||
				got.LLCMisses != want.LLCMisses || got.Accesses != want.Accesses {
				t.Fatalf("round %d, %+v, w=%d, %d nodes, %d blocks:\n got %+v\nwant %+v",
					round, cfg, w, g.Len(), len(fp.raw), got, want)
			}
		}
	})
}
