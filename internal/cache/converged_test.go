package cache

import (
	"math/rand"
	"slices"
	"testing"

	"futurelocality/internal/dag"
)

// seqPredOf indexes an order the way sim.SeqPred does: each node's
// predecessor in it, dag.None for the first.
func seqPredOf(order []dag.NodeID, n int) []dag.NodeID {
	pred := make([]dag.NodeID, n)
	for i := range pred {
		pred[i] = dag.None
	}
	for i := 1; i < len(order); i++ {
		pred[order[i]] = order[i-1]
	}
	return pred
}

// runSchedule cuts seq into stretches of 1 to 2·meanRun nodes, deals each to
// a random one of p workers and interleaves the workers' stretches at
// random, node by node: every stretch is a run of its worker, and each
// worker's next stretch starts wherever seq left it — the shape of a
// work-stealing schedule without its legality, which the replay does not
// need.
func runSchedule(r *rand.Rand, seq []dag.NodeID, p, meanRun int) ([]dag.NodeID, []int32) {
	queues := make([][]dag.NodeID, p)
	who := make([]int32, len(seq))
	for i := 0; i < len(seq); {
		end := min(len(seq), i+1+r.Intn(2*meanRun))
		w := r.Intn(p)
		for _, v := range seq[i:end] {
			queues[w] = append(queues[w], v)
			who[v] = int32(w)
		}
		i = end
	}
	order := make([]dag.NodeID, 0, len(seq))
	for len(order) < len(seq) {
		w := r.Intn(p)
		for len(queues[w]) == 0 {
			w = (w + 1) % p
		}
		order = append(order, queues[w][0])
		queues[w] = queues[w][1:]
	}
	return order, who
}

// TestConvergedReplayMatchesReplay holds ReplayConverged to Replay, worker by
// worker, on every graph family, synthetic and declared, at several C,
// windows and worker counts, with runs from a few nodes to hundreds, the
// sequential order a random topological one or a random permutation. One
// pair of sets serves every case, so nothing may survive a replay. Some cases
// must converge — simulate fewer accesses than the schedule has — or the test
// says nothing.
func TestConvergedReplayMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sets := map[SetConfig][2]*Set{}
	setsFor := func(cfg SetConfig) (*Set, *Set) {
		if s, ok := sets[cfg]; ok {
			return s[0], s[1]
		}
		a, err := NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets[cfg] = [2]*Set{a, b}
		return a, b
	}
	converged, cases := 0, 0
	for family := uint8(0); family < 12; family++ {
		for _, size := range []uint8{7, 40, 90} {
			g := replayGraph(family, size, int64(family)*31+int64(size))
			for _, lines := range []int{1, 2, 5, 16} {
				for _, w := range []int{1, 3, 15} {
					fp := DeriveFootprint(g, w)
					cfg := SetConfig{P: 1 + r.Intn(4), Kind: LRU, Lines: lines}
					if !cfg.Converges(fp) {
						continue
					}
					seq := make([]dag.NodeID, g.Len())
					for i, v := range r.Perm(g.Len()) {
						seq[i] = dag.NodeID(v)
					}
					if r.Intn(2) == 0 {
						slices.Sort(seq) // ID order: the builders' own topological order
					}
					rec, err := NewSet(SetConfig{P: 1, Kind: LRU, Lines: lines})
					if err != nil {
						t.Fatal(err)
					}
					seqMiss := make([]int32, g.Len())
					seqOut := rec.ReplayRecording(fp, seq, seqMiss)
					var sum int64
					for _, m := range seqMiss {
						sum += int64(m)
					}
					if full := rec.Replay(fp, seq, nil); sum != full.TotalMisses || seqOut.TotalMisses != full.TotalMisses {
						t.Fatalf("recorded %d misses per node (total %d), the replay %d", sum, seqOut.TotalMisses, full.TotalMisses)
					}
					pred := seqPredOf(seq, g.Len())
					for _, meanRun := range []int{1, 8, 200} {
						order, who := runSchedule(r, seq, cfg.P, meanRun)
						conv, full := setsFor(cfg)
						got := conv.ReplayConverged(fp, order, who, pred, seqMiss)
						want := full.Replay(fp, order, who)
						if !slices.Equal(got.Misses, want.Misses) || got.TotalMisses != want.TotalMisses {
							t.Fatalf("family %d size %d, %+v, w=%d, runs of ~%d: converged %v (%d), full %v (%d)",
								family, size, cfg, w, meanRun, got.Misses, got.TotalMisses, want.Misses, want.TotalMisses)
						}
						cases++
						if got.Accesses < want.Accesses {
							converged++
						}
					}
				}
			}
		}
	}
	if cases == 0 || converged < cases/4 {
		t.Fatalf("%d of %d replays converged anywhere", converged, cases)
	}
}

// TestConvergesRule: the converged replay stands for the full one only on
// private LRU caches over more blocks than C.
func TestConvergesRule(t *testing.T) {
	g := replayGraph(2, 40, 1) // Fib, synthetic
	fp := DeriveFootprint(g, 3)
	blocks := len(fp.raw)
	for _, c := range []struct {
		cfg  SetConfig
		want bool
	}{
		{SetConfig{P: 4, Kind: LRU, Lines: blocks - 1}, true},
		{SetConfig{P: 4, Kind: LRU, Lines: blocks}, false},
		{SetConfig{P: 4, Kind: LRU, Lines: 2, LLCLines: 8}, false},
		{SetConfig{P: 4, Kind: FIFO, Lines: 2}, false},
		{SetConfig{P: 4, Kind: SetAssocLRU, Lines: 2}, false},
		{SetConfig{P: 4, Kind: DirectMapped, Lines: 2}, false},
	} {
		if got := c.cfg.Converges(fp); got != c.want {
			t.Errorf("%+v over %d blocks: Converges = %v, want %v", c.cfg, blocks, got, c.want)
		}
	}
}
