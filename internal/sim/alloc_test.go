//go:build !race

// Allocation budgets, excluded under -race (the race runtime allocates); CI
// runs them in its no-race pass.
package sim

import (
	"runtime"
	"slices"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/graphs"
)

// TestEngineBytesPerNode pins the engine's per-node state at three int32
// tables (when, who, order): New and Run of graphs.Fib(16, 2) at P = 4 with
// caches of 64 lines allocate at most 12 bytes a node plus a constant — each
// table rounded up to whole pages, the deques, the steal list, the replay set
// and the engine itself. Per-processor orders, an int64 When and a separate
// parent countdown took about 26 bytes a node.
func TestEngineBytesPerNode(t *testing.T) {
	g := graphs.Fib(16, 2)
	ctrl := NewRandomControl(7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(g, Config{P: 4, CacheLines: 64, Control: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const slack = 32 << 10
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(12*g.Len()+slack)
	if got > budget {
		t.Fatalf("New+Run of %d nodes allocated %d bytes (%.1f a node), budget 12·n + %d = %d",
			g.Len(), got, float64(got)/float64(g.Len()), slack, budget)
	}
}

// TestResultSeqPredKeepsItsStorage: a sequential result indexes its order on
// storage the engine keeps, so a reused engine's next baseline builds its
// SeqPred without allocating, and the table is NewSeqPred's.
func TestResultSeqPredKeepsItsStorage(t *testing.T) {
	g := graphs.Fib(12, 2)
	var e Engine
	seq, err := e.Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	seq.SeqPred()
	if seq, err = e.Sequential(g, ParentFirst, 0, cache.LRU); err != nil {
		t.Fatal(err)
	}
	var sp SeqPred
	if n := testing.AllocsPerRun(5, func() { sp = seq.SeqPred() }); n != 0 {
		t.Fatalf("SeqPred on a reused engine allocated %.0f times", n)
	}
	if want := NewSeqPred(seq.SeqOrder(), g.Len()); !slices.Equal(sp.Preds(), want.Preds()) || sp.first != want.first {
		t.Fatal("the result's SeqPred differs from NewSeqPred's")
	}
}
