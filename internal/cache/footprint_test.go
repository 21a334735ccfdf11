package cache

import (
	"slices"
	"testing"

	"futurelocality/internal/dag"
)

// twoThreadGraph builds the hand-checkable fixture shared by the footprint
// and replay golden tests: a main thread that forks one future thread of two
// nodes, continues, and touches it.
//
//	node 0  main step
//	node 1  fork
//	node 2  future thread node (thread 1)
//	node 3  future thread node
//	node 4  main continuation (fork's right child)
//	node 5  touch of thread 1
func twoThreadGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	m.Step()
	m.Touch(f)
	return b.MustBuild()
}

func TestDeriveFootprintSynthetic(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	if !fp.Synthetic {
		t.Fatal("expected synthetic footprint for a block-free graph")
	}
	if fp.Window != 1 {
		t.Fatalf("Window = %d, want 1", fp.Window)
	}
	// 2 threads: frames 0,1 plus one window slot each (blocks 2,3).
	if fp.Blocks != 4 {
		t.Fatalf("Blocks = %d, want 4", fp.Blocks)
	}
	// With w=1 every node of a thread touches the same window slot. Dense
	// ids go thread by thread, frame then slots; the identities behind them
	// are the layout's, frames first.
	want := map[dag.NodeID][]dag.BlockID{
		0: {0, 1},
		1: {0, 1},
		2: {2, 3},
		3: {2, 3},
		4: {0, 1},
		5: {0, 1, 2}, // touch: frame, window slot, touched thread's frame
	}
	for v, blocks := range want {
		if got := fp.Of(v); !slices.Equal(got, blocks) {
			t.Fatalf("node %d footprint = %v, want %v", v, got, blocks)
		}
	}
	if want := []dag.BlockID{0, 2, 1, 3}; !slices.Equal(fp.raw, want) {
		t.Fatalf("raw identities = %v, want %v", fp.raw, want)
	}
}

// TestDeriveFootprintNumbersOnlyBlocksInUse: a thread shorter than the window
// gets ids for the slots it reaches, not for all w, while Blocks keeps
// reporting the layout's nominal count.
func TestDeriveFootprintNumbersOnlyBlocksInUse(t *testing.T) {
	g := twoThreadGraph(t) // main thread 4 nodes, future thread 2
	fp := DeriveFootprint(g, 3)
	if fp.Blocks != 2+2*3 {
		t.Fatalf("Blocks = %d, want the nominal 8", fp.Blocks)
	}
	// Thread 0: frame, slots 0..2 (node 5 wraps to slot 0). Thread 1: frame,
	// slots 0..1.
	want := []dag.BlockID{0, 2, 3, 4, 1, 5, 6}
	if !slices.Equal(fp.raw, want) {
		t.Fatalf("raw identities = %v, want %v", fp.raw, want)
	}
	if got, want := fp.Of(5), []dag.BlockID{0, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("touch node footprint = %v, want %v", got, want)
	}
}

func TestDeriveFootprintWindowRolls(t *testing.T) {
	// A single chain of 5 nodes with w=2 alternates between the thread's two
	// window slots: positions 0..4 → slots 0,1,0,1,0.
	b := dag.NewBuilder()
	b.Main().Steps(5)
	g := b.MustBuild()
	fp := DeriveFootprint(g, 2)
	if fp.Blocks != 3 { // 1 frame + 2 window slots
		t.Fatalf("Blocks = %d, want 3", fp.Blocks)
	}
	for v := 0; v < 5; v++ {
		got := fp.Of(dag.NodeID(v))
		wantSlot := dag.BlockID(1 + v%2) // frames first: slot IDs start at 1
		if len(got) != 2 || got[0] != 0 || got[1] != wantSlot {
			t.Fatalf("node %d footprint = %v, want [0 %d]", v, got, wantSlot)
		}
	}
}

func TestDeriveFootprintDeclared(t *testing.T) {
	// Any declared block switches the footprint to passthrough: exactly the
	// graph's own blocks, no synthetic frames.
	b := dag.NewBuilder()
	m := b.Main()
	m.Access(7)
	m.Step()
	m.Access(7)
	m.Access(9)
	g := b.MustBuild()
	fp := DeriveFootprint(g, 4)
	if fp.Synthetic {
		t.Fatal("expected declared footprint when the graph assigns blocks")
	}
	if fp.Blocks != 2 {
		t.Fatalf("Blocks = %d, want 2 distinct declared blocks", fp.Blocks)
	}
	// Nodes 0, 2, 3 declare 7, 7, 9: dense ids by first use.
	for v, want := range [][]dag.BlockID{{0}, {}, {0}, {1}} {
		if got := fp.Of(dag.NodeID(v)); !slices.Equal(got, want) {
			t.Fatalf("node %d footprint = %v, want %v", v, got, want)
		}
	}
	if want := []dag.BlockID{7, 9}; !slices.Equal(fp.raw, want) {
		t.Fatalf("raw identities = %v, want %v", fp.raw, want)
	}
}

func TestFootprintFlatten(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	order := []dag.NodeID{0, 1, 2, 3, 4, 5}
	flat := fp.Flatten(order)
	want := []dag.BlockID{0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2}
	if !slices.Equal(flat, want) {
		t.Fatalf("Flatten = %v, want %v", flat, want)
	}
}

func TestDeriveFootprintPanicsOnBadWindow(t *testing.T) {
	g := twoThreadGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for window < 1")
		}
	}()
	DeriveFootprint(g, 0)
}
