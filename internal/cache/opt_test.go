package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"futurelocality/internal/dag"
)

func TestOptimalMissesHandTrace(t *testing.T) {
	// Classic example, C=3: trace 1 2 3 4 1 2 5 1 2 3 4 5
	// OPT: 1m 2m 3m 4m(evict 3) 1h 2h 5m(evict 4) 1h 2h 3m(evict 1 or 2) 4m 5h
	// = 7 misses (the textbook OPT count for this trace).
	trace := []dag.BlockID{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
	if got := OptimalMisses(trace, 3); got != 7 {
		t.Fatalf("OPT misses = %d, want 7", got)
	}
}

func TestOptimalCyclicScanBeatsLRU(t *testing.T) {
	// Cyclic scan of C+1 blocks: LRU misses everything; OPT misses roughly
	// 1/C of the steady state.
	const C = 4
	var trace []dag.BlockID
	for round := 0; round < 50; round++ {
		for b := dag.BlockID(0); b <= C; b++ {
			trace = append(trace, b)
		}
	}
	lru := newCache(LRU, C)
	for _, b := range trace {
		lru.Access(b)
	}
	opt := OptimalMisses(trace, C)
	if lru.Misses() != int64(len(trace)) {
		t.Fatalf("LRU should thrash: %d/%d", lru.Misses(), len(trace))
	}
	if opt >= lru.Misses()/2 {
		t.Fatalf("OPT %d should be far below LRU %d", opt, lru.Misses())
	}
}

func TestOptimalNoBlockSkipped(t *testing.T) {
	trace := []dag.BlockID{dag.NoBlock, 1, dag.NoBlock, 1}
	if got := OptimalMisses(trace, 2); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

func TestOptimalSingleLine(t *testing.T) {
	trace := []dag.BlockID{1, 2, 1, 2, 2, 1}
	// C=1: every alternation misses; repeated 2 hits once.
	if got := OptimalMisses(trace, 1); got != 5 {
		t.Fatalf("misses = %d, want 5", got)
	}
}

// TestOptimalLowerBoundsLRUProperty: OPT never misses more than LRU (or
// FIFO) on any trace — the defining property.
func TestOptimalLowerBoundsLRUProperty(t *testing.T) {
	f := func(seed int64, cSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + int(cSel%8)
		trace := make([]dag.BlockID, 400)
		for i := range trace {
			trace[i] = dag.BlockID(rng.Intn(16))
		}
		opt := OptimalMisses(trace, c)
		for _, kind := range []Kind{LRU, FIFO} {
			cc := newCache(kind, c)
			for _, b := range trace {
				cc.Access(b)
			}
			if opt > cc.Misses() {
				t.Logf("seed=%d c=%d: OPT %d > %s %d", seed, c, opt, kind, cc.Misses())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalColdMissesExact: with enough capacity, OPT misses exactly the
// number of distinct blocks.
func TestOptimalColdMissesExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]dag.BlockID, 200)
		distinct := map[dag.BlockID]struct{}{}
		for i := range trace {
			trace[i] = dag.BlockID(rng.Intn(12))
			distinct[trace[i]] = struct{}{}
		}
		return OptimalMisses(trace, 12) == int64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
