package dag

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// chain builds a single-thread graph of n nodes.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder()
	b.Main().Steps(n)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestChainBasics(t *testing.T) {
	g := chain(t, 5)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if g.Root != 0 || g.Final != 4 {
		t.Fatalf("Root/Final = %d/%d, want 0/4", g.Root, g.Final)
	}
	if got := g.Span(); got != 5 {
		t.Fatalf("Span = %d, want 5", got)
	}
	if got := g.Work(); got != 5 {
		t.Fatalf("Work = %d, want 5", got)
	}
	if g.NumThreads() != 1 {
		t.Fatalf("NumThreads = %d, want 1", g.NumThreads())
	}
	if g.NumTouches() != 0 {
		t.Fatalf("NumTouches = %d, want 0", g.NumTouches())
	}
	for id := 0; id < 4; id++ {
		if got := g.Nodes[id].ContChild(); got != NodeID(id+1) {
			t.Fatalf("node %d ContChild = %d, want %d", id, got, id+1)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSingleNodeGraph(t *testing.T) {
	g := chain(t, 1)
	if g.Root != g.Final {
		t.Fatalf("single node: root %d != final %d", g.Root, g.Final)
	}
	if g.Span() != 1 {
		t.Fatalf("Span = %d, want 1", g.Span())
	}
}

func TestEmptyBuild(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build of empty graph should fail")
	}
}

// buildFig4 constructs the structured single-touch DAG of the paper's
// Figure 4 shape: main forks f1, works, forks f2, works, touches f2, then f1.
func buildFig4(t *testing.T) (*Graph, *Builder) {
	t.Helper()
	b := NewBuilder()
	m := b.Main()
	m.Step() // root
	f1 := m.Fork()
	f1.Steps(3)
	m.Step() // right child of fork 1
	f2 := m.Fork()
	f2.Steps(2)
	m.Step() // right child of fork 2
	m.Touch(f2)
	m.Touch(f1)
	m.Step() // final
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, b
}

func TestForkTouchStructure(t *testing.T) {
	g, _ := buildFig4(t)
	if g.NumThreads() != 3 {
		t.Fatalf("NumThreads = %d, want 3", g.NumThreads())
	}
	if g.NumTouches() != 2 {
		t.Fatalf("NumTouches = %d, want 2", g.NumTouches())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Fork of thread 1 is node 1; its future child must be thread 1's first
	// node and its cont child a node of the main thread.
	fork := g.ThreadFork[1]
	fc := g.Nodes[fork].FutureChild()
	if fc != g.ThreadFirst[1] {
		t.Fatalf("fork future child = %d, want %d", fc, g.ThreadFirst[1])
	}
	cc := g.Nodes[fork].ContChild()
	if g.Nodes[cc].Thread != 0 {
		t.Fatalf("fork cont child in thread %d, want main", g.Nodes[cc].Thread)
	}
	// Each touch's future parent must be the last node of its future thread.
	for _, ti := range g.Touches {
		if ti.FutureParent != g.ThreadLast[ti.FutureThread] {
			t.Fatalf("touch %d: future parent %d, want thread %d last %d",
				ti.Node, ti.FutureParent, ti.FutureThread, g.ThreadLast[ti.FutureThread])
		}
		if ti.Fork != g.ThreadFork[ti.FutureThread] {
			t.Fatalf("touch %d: fork %d, want %d", ti.Node, ti.Fork, g.ThreadFork[ti.FutureThread])
		}
		if g.Nodes[ti.Node].NIn != 2 {
			t.Fatalf("touch %d has in-degree %d, want 2", ti.Node, g.Nodes[ti.Node].NIn)
		}
	}
}

// TestSpanConcurrentFirstCalls shares a graph nobody has asked for its span
// yet — one from a Builder, one from ReadBinary — among goroutines whose
// first Span calls race one another. Under -race this fails on a Span that
// memoises on first use; a graph is finished where it is made.
func TestSpanConcurrentFirstCalls(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	f := m.Fork()
	f.Steps(10)
	m.Step()
	m.Touch(f)
	built := b.MustBuild()
	for name, g := range map[string]*Graph{"built": built, "decoded": roundTrip(t, built)} {
		const readers = 8
		got := make([]int64, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = g.Span()
			}()
		}
		start.Done()
		done.Wait()
		for i, s := range got {
			// fork, ten future nodes, touch.
			if s != 12 {
				t.Errorf("%s graph: reader %d saw Span = %d, want 12", name, i, s)
			}
		}
	}
}

func TestSpanWithParallelism(t *testing.T) {
	// main: root, fork, right, touch, final = 5 main nodes; future thread: 10.
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(10)
	m.Step()
	m.Touch(f)
	m.Step()
	g := b.MustBuild()
	// Longest path: root, fork, 10 future nodes, touch, final = 14.
	if got := g.Span(); got != 14 {
		t.Fatalf("Span = %d, want 14", got)
	}
	if got := g.Work(); got != 15 {
		t.Fatalf("Work = %d, want 15", got)
	}
}

func TestDoubleTouchFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Step()
	m.Step()
	m.Touch(f)
	m.Touch(f)
	if _, err := b.Build(); err == nil {
		t.Fatal("double touch should fail Build")
	}
}

func TestUntouchedThreadFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Step()
	m.Step()
	if _, err := b.Build(); err == nil {
		t.Fatal("untouched thread should fail Build")
	}
}

func TestEmptyFutureThreadFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	m.Step()
	m.Touch(f)
	if _, err := b.Build(); err == nil {
		t.Fatal("touching an empty future thread should fail Build")
	}
}

func TestSelfTouchFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	m.Touch(m)
	if _, err := b.Build(); err == nil {
		t.Fatal("self touch should fail Build")
	}
}

func TestAppendAfterTouchFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Step()
	m.Step()
	m.Touch(f)
	f.Step() // thread f is closed
	if _, err := b.Build(); err == nil {
		t.Fatal("append to closed thread should fail Build")
	}
}

func TestBuildTwiceFails(t *testing.T) {
	b := NewBuilder()
	b.Main().Steps(2)
	if _, err := b.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build should fail")
	}
}

func TestSuperFinalBuild(t *testing.T) {
	// A side-effect future thread never touched: only legal with a super
	// final node.
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	m.Steps(2)
	g, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatalf("BuildSuperFinal: %v", err)
	}
	if !g.SuperFinal {
		t.Fatal("SuperFinal flag not set")
	}
	// The final node is the appended sink and has in-degree 2 here
	// (main cont + f's touch edge).
	if g.Nodes[g.Final].NIn != 2 {
		t.Fatalf("final in-degree = %d, want 2", g.Nodes[g.Final].NIn)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The touch recorded for f must target the final node.
	start, grouped := touchesByThread(g)
	tis := grouped[start[1]:start[2]]
	if len(tis) != 1 || tis[0].Node != g.Final {
		t.Fatalf("thread 1 touches = %+v, want single touch at final", tis)
	}
}

func TestSuperFinalManyThreads(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	var fs []*Thread
	for i := 0; i < 4; i++ {
		f := m.Fork()
		f.Steps(2)
		fs = append(fs, f)
		m.Step()
	}
	// Touch two of them normally; leave two for the super final node.
	m.Touch(fs[0])
	m.Touch(fs[2])
	g, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatalf("BuildSuperFinal: %v", err)
	}
	if g.Nodes[g.Final].NIn != 3 { // main cont + 2 touch edges
		t.Fatalf("final in-degree = %d, want 3", g.Nodes[g.Final].NIn)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPromiseLocalTouch(t *testing.T) {
	// One future thread computing two futures, touched at different times by
	// the parent thread (local-touch, Definition 3).
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	p1 := f.Promise()
	f.Steps(2)
	m.Step() // right child
	m.TouchPromise(p1, NoBlock)
	m.Step()
	m.Touch(f)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	start, _ := touchesByThread(g)
	if got := start[2] - start[1]; got != 2 {
		t.Fatalf("thread 1 touches = %d, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPromiseDoubleTouchFails(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	p := f.Promise()
	m.Step()
	m.TouchPromise(p, NoBlock)
	m.TouchPromise(p, NoBlock)
	m.Touch(f)
	if _, err := b.Build(); err == nil {
		t.Fatal("double TouchPromise should fail Build")
	}
}

func TestReaches(t *testing.T) {
	g, _ := buildFig4(t)
	if !g.Reaches(g.Root, g.Final) {
		t.Fatal("root must reach final")
	}
	if g.Reaches(g.Final, g.Root) {
		t.Fatal("final must not reach root")
	}
	if !g.Reaches(g.Root, g.Root) {
		t.Fatal("Reaches must be reflexive")
	}
	// A future thread's first node must not reach its sibling (fork's right
	// child) except through the touch; in Fig4 f1's first node reaches the
	// touch of f1 and beyond, but not the fork itself.
	fork := g.ThreadFork[1]
	first := g.ThreadFirst[1]
	if g.Reaches(first, fork) {
		t.Fatal("future thread must not reach its own fork")
	}
}

func TestParents(t *testing.T) {
	g, _ := buildFig4(t)
	parents := g.Parents()
	if len(parents[g.Root]) != 0 {
		t.Fatalf("root has parents %v", parents[g.Root])
	}
	for _, ti := range g.Touches {
		ps := parents[ti.Node]
		if len(ps) != 2 {
			t.Fatalf("touch %d has %d parents", ti.Node, len(ps))
		}
		seen := map[NodeID]bool{ps[0]: true, ps[1]: true}
		if !seen[ti.FutureParent] || !seen[ti.LocalParent] {
			t.Fatalf("touch %d parents %v missing future %d / local %d",
				ti.Node, ps, ti.FutureParent, ti.LocalParent)
		}
	}
}

func TestAccessBlocks(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Access(7)
	m.AccessSeq(1, 2, 3)
	m.Step()
	m.Access(1)
	g := b.MustBuild()
	// Dense ids by first use; RawBlocks keeps the identities.
	want := []BlockID{0, 1, 2, 3, NoBlock, 1}
	for i, w := range want {
		if g.Nodes[i].Block != w {
			t.Fatalf("node %d block = %d, want %d", i, g.Nodes[i].Block, w)
		}
	}
	if raw := []BlockID{7, 1, 2, 3}; !reflect.DeepEqual(g.RawBlocks, raw) {
		t.Fatalf("RawBlocks = %v, want %v", g.RawBlocks, raw)
	}
}

func TestJoinNotCountedAsTouch(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Step()
	m.Step()
	m.Join(f)
	g := b.MustBuild()
	if got := g.NumTouches(); got != 0 {
		t.Fatalf("NumTouches = %d, want 0 (join is not a touch)", got)
	}
	if got := len(g.Touches); got != 1 {
		t.Fatalf("len(Touches) = %d, want 1 (join recorded)", got)
	}
	if !g.Touches[0].Join {
		t.Fatal("join not flagged")
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := buildFig4(t)
	var sb strings.Builder
	if err := WriteDOT(&sb, g, "fig4"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "style=dashed", "style=dotted", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestValidateCatchesNonTopo(t *testing.T) {
	g := chain(t, 3)
	// Corrupt: make node 2 point back to node 1.
	g.Nodes[2].Out[0] = Edge{To: 1, Kind: EdgeCont}
	g.Nodes[2].NOut = 1
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject a backward edge")
	}
}
