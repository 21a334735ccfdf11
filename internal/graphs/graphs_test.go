package graphs

import (
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
)

// classifyCheck asserts the expected classification of a generator output.
func classifyCheck(t *testing.T, g *dag.Graph, wantStructured, wantSingle, wantLocal bool, name string) {
	t.Helper()
	c := dag.Classify(g)
	if c.Structured != wantStructured {
		t.Fatalf("%s: Structured = %v, want %v (%v)", name, c.Structured, wantStructured, c.Violations)
	}
	if c.SingleTouch != wantSingle {
		t.Fatalf("%s: SingleTouch = %v, want %v (%v)", name, c.SingleTouch, wantSingle, c.Violations)
	}
	if c.LocalTouch != wantLocal {
		t.Fatalf("%s: LocalTouch = %v, want %v (%v)", name, c.LocalTouch, wantLocal, c.Violations)
	}
}

// seqRuns checks the graph executes under both policies sequentially.
func seqRuns(t *testing.T, g *dag.Graph, name string) {
	t.Helper()
	for _, pol := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
		res, err := sim.Sequential(g, pol, 8, cache.LRU)
		if err != nil {
			t.Fatalf("%s %v: %v", name, pol, err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("%s %v: %v", name, pol, err)
		}
	}
}

func TestFig6aStructure(t *testing.T) {
	g, info := Fig6a(4, 3, true)
	classifyCheck(t, g, true, true, false, "Fig6a")
	seqRuns(t, g, "Fig6a")
	if len(info.S) != 4 {
		t.Fatalf("S count = %d", len(info.S))
	}
	// v is the root and a fork; u1 is its continuation child.
	if info.V != g.Root {
		t.Fatalf("V = %d, want root", info.V)
	}
	if got := g.Nodes[info.V].ContChild(); got != info.U1 {
		t.Fatalf("v's right child = %d, want U1 = %d", got, info.U1)
	}
	if got := g.Nodes[info.V].FutureChild(); got != info.W {
		t.Fatalf("v's future child = %d, want W = %d", got, info.W)
	}
}

func TestFig6aSequentialOrder(t *testing.T) {
	// The proof's sequential order: v, w, u1, x1, Y1, s1, Z1, u2, …
	g, info := Fig6a(3, 2, false)
	res, err := sim.Sequential(g, sim.FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	order := res.SeqOrder()
	if order[0] != info.V || order[1] != info.W || order[2] != info.U1 {
		t.Fatalf("order starts %v, want v,w,u1 = %d,%d,%d", order[:3], info.V, info.W, info.U1)
	}
	// s_i must immediately follow Y_i's last node (all of F_i up to s_i runs
	// contiguously), and the whole F_i block precedes u_{i+1}.
	for i, s := range info.S {
		if res.When[s] >= res.When[info.A] {
			t.Fatalf("s_%d executed after the buffer a", i+1)
		}
	}
}

func TestFig6bStructure(t *testing.T) {
	g, info := Fig6b(3, 2, true)
	classifyCheck(t, g, true, true, false, "Fig6b")
	seqRuns(t, g, "Fig6b")
	if len(info.R) != 3 || len(info.Blocks) != 3 {
		t.Fatalf("info sizes: R=%d Blocks=%d", len(info.R), len(info.Blocks))
	}
}

func TestFig6cStructure(t *testing.T) {
	g, info := Fig6c(3, 3, 2, true)
	classifyCheck(t, g, true, true, false, "Fig6c")
	seqRuns(t, g, "Fig6c")
	if len(info.Leaves) != 3 || len(info.SpineForks) != 2 {
		t.Fatalf("info sizes: leaves=%d spine=%d", len(info.Leaves), len(info.SpineForks))
	}
}

func TestFig7aStructureViaFig7b(t *testing.T) {
	g, info := Fig7b(4, 3, 4, true)
	// Everything in Fig7b hangs off the main thread, so it is local-touch
	// as well as single-touch.
	classifyCheck(t, g, true, true, true, "Fig7b")
	seqRuns(t, g, "Fig7b")
	if len(info.Block.X) != 3 || len(info.Block.Y) != 3 {
		t.Fatalf("block sizes: X=%d Y=%d", len(info.Block.X), len(info.Block.Y))
	}
	// Joins are recorded but not counted as touches.
	if g.NumTouches() != len(g.Touches)-len(info.Block.Y) {
		t.Fatalf("touches=%d recorded=%d joins=%d", g.NumTouches(), len(g.Touches), len(info.Block.Y))
	}
}

func TestFig7bSequentialParity(t *testing.T) {
	// The proof's parity: w_i executes before s_i for odd i, after s_i for
	// even i (1-based), in the sequential parent-first execution.
	g, info := Fig7b(6, 3, 4, false)
	res, err := sim.Sequential(g, sim.ParentFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(info.W); i++ { // chain indices 1..k-1
		wBeforeS := res.When[info.W[i]] < res.When[info.S[i]]
		odd := (i+1)%2 == 1
		if wBeforeS != odd {
			t.Fatalf("parity violated at i=%d: w before s = %v, want %v", i+1, wBeforeS, odd)
		}
	}
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestFig8Structure(t *testing.T) {
	g, info := Fig8(4, 3, 4, true)
	classifyCheck(t, g, true, true, false, "Fig8")
	seqRuns(t, g, "Fig8")
	if len(info.LeafBlocks) != 8 { // 2^(depth-1) leaves
		t.Fatalf("leaves = %d, want 8", len(info.LeafBlocks))
	}
	if info.Touches <= 0 {
		t.Fatal("no touches recorded")
	}
}

func TestFig3Unstructured(t *testing.T) {
	g, info := Fig3(3, 2, true)
	c := dag.Classify(g)
	if c.Structured {
		t.Fatal("Fig3 must be unstructured")
	}
	seqRuns(t, g, "Fig3")
	if len(info.Touches) != 3 || len(info.ProducerForks) != 3 {
		t.Fatalf("info sizes: touches=%d forks=%d", len(info.Touches), len(info.ProducerForks))
	}
}

func TestFig4Fig5Classification(t *testing.T) {
	classifyCheck(t, Fig4(), true, true, true, "Fig4")
	classifyCheck(t, Fig5a(), true, true, true, "Fig5a")
	classifyCheck(t, Fig5b(), true, true, false, "Fig5b")
}

func TestForkJoinTree(t *testing.T) {
	g := ForkJoinTree(4, 3, true)
	classifyCheck(t, g, true, true, true, "ForkJoinTree")
	seqRuns(t, g, "ForkJoinTree")
	if g.NumTouches() != 15 { // 2^4 - 1 internal forks
		t.Fatalf("touches = %d, want 15", g.NumTouches())
	}
}

func TestFib(t *testing.T) {
	g := Fib(10, 3)
	classifyCheck(t, g, true, true, true, "Fib")
	seqRuns(t, g, "Fib")
	if g.NumThreads() < 10 {
		t.Fatalf("threads = %d, want many", g.NumThreads())
	}
}

func TestQuicksort(t *testing.T) {
	g := Quicksort(2000, 64, 7, true)
	classifyCheck(t, g, true, true, true, "Quicksort")
	seqRuns(t, g, "Quicksort")
	// Irregular: different seeds give different shapes.
	g2 := Quicksort(2000, 64, 8, true)
	if g.Len() == g2.Len() && g.Span() == g2.Span() {
		t.Log("seeds 7 and 8 coincide in shape (unlikely but possible)")
	}
}

func TestQuicksortTiny(t *testing.T) {
	g := Quicksort(2, 1, 1, false)
	seqRuns(t, g, "QuicksortTiny")
}

func TestPipeline(t *testing.T) {
	g, _ := Pipeline(3, 5, 2, true)
	// Local-touch but not single-touch (stages compute several futures).
	classifyCheck(t, g, true, false, true, "Pipeline")
	seqRuns(t, g, "Pipeline")
}

func TestPipelineSingleStageSingleItem(t *testing.T) {
	g, _ := Pipeline(1, 1, 1, false)
	c := dag.Classify(g)
	if !c.LocalTouch {
		t.Fatalf("1x1 pipeline should be local-touch: %v", c.Violations)
	}
}

func TestRandomStructuredAlwaysSingleTouch(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := RandomStructured(seed, RandomConfig{MaxNodes: 300, MaxBlocks: 16})
		c := dag.Classify(g)
		if !c.Structured || !c.SingleTouch {
			t.Fatalf("seed %d: classified %v (%v)", seed, c, c.Violations)
		}
	}
}

func TestRandomStructuredDeterministic(t *testing.T) {
	a := RandomStructured(7, RandomConfig{MaxNodes: 200, MaxBlocks: 8})
	b := RandomStructured(7, RandomConfig{MaxNodes: 200, MaxBlocks: 8})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestRandomStructuredExecutes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomStructured(seed, RandomConfig{MaxNodes: 400, MaxBlocks: 8})
		seqRuns(t, g, "RandomStructured")
		eng, err := sim.New(g, sim.Config{P: 4, CacheLines: 8, Control: sim.NewRandomControl(seed)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Fig6a(0, 1, false) },
		func() { Fig7b(3, 2, 2, false) }, // odd k
		func() { Fig8(3, 2, 2, false) },  // odd depth
		func() { Fig3(0, 1, false) },
		func() { Fib(5, 1) },
		func() { Pipeline(0, 1, 1, false) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
