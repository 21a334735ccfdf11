package cache_test

import (
	"slices"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
)

// FuzzConvergedReplay holds ReplayConverged to Replay, worker by worker, on
// the schedules the simulator makes: FuzzReplay's graph families (seeded
// random programs among them), synthetic or declared, a random C and window,
// either fork policy's sequential order as the record, and three trials of
// random work stealing on one to four workers. One pair of sets replays
// three graphs in a row, the middle one another, so nothing may survive a
// converged replay either: not a run, a stamp or a rebuilt cache.
func FuzzConvergedReplay(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(7), uint8(40), uint8(0x28), uint8(3), uint8(0))   // Fib, synthetic, C = 9
	f.Add(int64(2), uint8(1), uint8(90), uint8(0), uint8(30), uint8(0x03), uint8(1), uint8(1))   // random program, declared, C = 4
	f.Add(int64(3), uint8(8), uint8(13), uint8(10), uint8(60), uint8(0x70), uint8(2), uint8(0))  // Fig6c, C = 1
	f.Add(int64(4), uint8(6), uint8(33), uint8(3), uint8(9), uint8(0xf5), uint8(3), uint8(1))    // pipeline, wide window
	f.Add(int64(5), uint8(10), uint8(77), uint8(2), uint8(50), uint8(0x1f), uint8(0), uint8(0))  // quicksort, one worker
	f.Add(int64(6), uint8(0), uint8(200), uint8(5), uint8(120), uint8(0x0b), uint8(3), uint8(1)) // large random program
	f.Fuzz(func(t *testing.T, seed int64, fam1, size1, fam2, size2, geometry, procs, policy uint8) {
		cfg := cache.SetConfig{P: 1 + int(procs%4), Kind: cache.LRU, Lines: 1 + int(geometry&0xf)}
		w := 1 + int(geometry>>4)
		pol := []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst}[policy&1]
		conv, err := cache.NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cache.NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := cache.NewSet(cache.SetConfig{P: 1, Kind: cache.LRU, Lines: cfg.Lines})
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := cache.ReplayGraph(fam1, size1, seed), cache.ReplayGraph(fam2, size2, seed+1)
		var eng sim.Engine
		for round, g := range []*dag.Graph{g1, g2, g1} {
			fp := cache.DeriveFootprint(g, w)
			if !cfg.Converges(fp) {
				continue
			}
			seq, err := sim.Sequential(g, pol, 0, cache.LRU)
			if err != nil {
				t.Fatal(err)
			}
			pred := sim.NewSeqPred(seq.SeqOrder(), g.Len()).Preds()
			seqMiss := make([]int32, g.Len())
			rec.ReplayRecording(fp, seq.SeqOrder(), seqMiss)
			for trial := int64(0); trial < 3; trial++ {
				if err := eng.Reset(g, sim.Config{P: cfg.P, Policy: pol, Control: sim.NewRandomControl(seed + trial)}); err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := conv.ReplayConverged(fp, res.Order, res.Who, pred, seqMiss)
				want := full.Replay(fp, res.Order, res.Who)
				if !slices.Equal(got.Misses, want.Misses) || got.TotalMisses != want.TotalMisses {
					t.Fatalf("round %d trial %d, %+v, w=%d, %s, %d nodes: converged %v (%d), full %v (%d)",
						round, trial, cfg, w, pol, g.Len(), got.Misses, got.TotalMisses, want.Misses, want.TotalMisses)
				}
			}
		}
	})
}
