package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"futurelocality/internal/dag"
)

func TestLRUHandTrace(t *testing.T) {
	// C=3; trace: 1m 2m 3m 1h 4m(evict 2) 2m(evict 3) 3m(evict 1) ...
	c := New(LRU, 3)
	type step struct {
		block dag.BlockID
		miss  bool
	}
	trace := []step{
		{1, true}, {2, true}, {3, true},
		{1, false}, // hit, 1 becomes MRU
		{4, true},  // evicts 2 (LRU)
		{2, true},  // evicts 3
		{3, true},  // evicts 1
		{4, false}, {2, false}, {3, false},
	}
	for i, s := range trace {
		if got := c.Access(s.block); got != s.miss {
			t.Fatalf("step %d (block %d): miss = %v, want %v", i, s.block, got, s.miss)
		}
	}
	if c.Misses() != 6 {
		t.Fatalf("misses = %d, want 6", c.Misses())
	}
	if c.Accesses() != int64(len(trace)) {
		t.Fatalf("accesses = %d, want %d", c.Accesses(), len(trace))
	}
}

func TestFIFOHandTrace(t *testing.T) {
	// C=3 FIFO; hit does not refresh position.
	c := New(FIFO, 3)
	type step struct {
		block dag.BlockID
		miss  bool
	}
	trace := []step{
		{1, true}, {2, true}, {3, true},
		{1, false},
		{4, true}, // evicts 1 (oldest), despite the recent hit
		{1, true}, // evicts 2
		{2, true}, // evicts 3
	}
	for i, s := range trace {
		if got := c.Access(s.block); got != s.miss {
			t.Fatalf("step %d (block %d): miss = %v, want %v", i, s.block, got, s.miss)
		}
	}
}

func TestLRUSequentialScanWorstCase(t *testing.T) {
	// Cyclic scan over C+1 blocks: LRU misses every access after warmup.
	const C = 8
	c := New(LRU, C)
	for round := 0; round < 5; round++ {
		for b := dag.BlockID(0); b <= C; b++ {
			c.Access(b)
		}
	}
	if c.Misses() != c.Accesses() {
		t.Fatalf("cyclic scan: misses %d != accesses %d", c.Misses(), c.Accesses())
	}
}

func TestNoBlockIsFree(t *testing.T) {
	for _, kind := range []Kind{LRU, FIFO, SetAssocLRU, DirectMapped} {
		c := New(kind, 4)
		for i := 0; i < 10; i++ {
			if c.Access(dag.NoBlock) {
				t.Fatalf("%s: NoBlock missed", kind)
			}
		}
		if c.Accesses() != 0 || c.Misses() != 0 {
			t.Fatalf("%s: NoBlock counted (%d/%d)", kind, c.Misses(), c.Accesses())
		}
	}
}

func TestReset(t *testing.T) {
	for _, kind := range []Kind{LRU, FIFO, SetAssocLRU, DirectMapped} {
		c := New(kind, 4)
		for b := dag.BlockID(0); b < 8; b++ {
			c.Access(b)
		}
		c.Reset()
		if c.Misses() != 0 || c.Accesses() != 0 {
			t.Fatalf("%s: counters survive Reset", kind)
		}
		if !c.Access(0) {
			t.Fatalf("%s: cache not empty after Reset", kind)
		}
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// Any policy: a working set of ≤ C distinct blocks in a fully
	// associative cache incurs exactly one (cold) miss per block.
	for _, kind := range []Kind{LRU, FIFO} {
		c := New(kind, 16)
		rng := rand.New(rand.NewSource(1))
		distinct := int64(16)
		for i := 0; i < 10000; i++ {
			c.Access(dag.BlockID(rng.Intn(16)))
		}
		if c.Misses() != distinct {
			t.Fatalf("%s: misses = %d, want %d cold misses", kind, c.Misses(), distinct)
		}
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Two blocks mapping to the same set of a direct-mapped cache thrash.
	c := NewSetAssoc(4, 1)
	for i := 0; i < 10; i++ {
		c.Access(0)
		c.Access(4) // 4 % 4 == 0: same set
	}
	if c.Misses() != c.Accesses() {
		t.Fatalf("conflict thrash: misses %d != accesses %d", c.Misses(), c.Accesses())
	}
	// A fully associative LRU with the same capacity holds both.
	l := New(LRU, 4)
	for i := 0; i < 10; i++ {
		l.Access(0)
		l.Access(4)
	}
	if l.Misses() != 2 {
		t.Fatalf("LRU should only cold-miss: %d", l.Misses())
	}
}

func TestSetAssocGeometry(t *testing.T) {
	c := NewSetAssoc(16, 4)
	if c.Lines() != 16 {
		t.Fatalf("Lines = %d, want 16", c.Lines())
	}
	// 4 sets of 4 ways: blocks 0,4,8,12 share set 0 and all fit.
	for i := 0; i < 3; i++ {
		for _, b := range []dag.BlockID{0, 4, 8, 12} {
			c.Access(b)
		}
	}
	if c.Misses() != 4 {
		t.Fatalf("misses = %d, want 4 cold", c.Misses())
	}
	// A 5th block in set 0 evicts the LRU one.
	c.Access(16)
	if !c.Access(0) {
		t.Fatal("block 0 should have been evicted (LRU within set)")
	}
}

// TestLRUMatchesReference cross-checks the O(1) LRU against a simple
// reference implementation on random traces.
func TestLRUMatchesReference(t *testing.T) {
	ref := func(c int, trace []dag.BlockID) []bool {
		var order []dag.BlockID // order[0] = LRU ... order[len-1] = MRU
		out := make([]bool, len(trace))
		for i, b := range trace {
			pos := -1
			for j, blk := range order {
				if blk == b {
					pos = j
					break
				}
			}
			if pos >= 0 {
				order = append(append(order[:pos:pos], order[pos+1:]...), b)
				out[i] = false
				continue
			}
			out[i] = true
			if len(order) == c {
				order = order[1:]
			}
			order = append(order, b)
		}
		return out
	}
	f := func(seed int64, csel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + int(csel%16)
		trace := make([]dag.BlockID, 500)
		for i := range trace {
			trace[i] = dag.BlockID(rng.Intn(24))
		}
		want := ref(c, trace)
		l := New(LRU, c)
		for i, b := range trace {
			if l.Access(b) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLRUInclusionProperty: a larger LRU cache never misses where a smaller
// one hits (the stack/inclusion property of LRU).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small, big := New(LRU, 4), New(LRU, 16)
		for i := 0; i < 2000; i++ {
			b := dag.BlockID(rng.Intn(32))
			sm, bm := small.Access(b), big.Access(b)
			if bm && !sm {
				return false // big missed where small hit: violates inclusion
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(LRU, 0) should panic")
		}
	}()
	New(LRU, 0)
}
