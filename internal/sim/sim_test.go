package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
)

// forkJoin builds: root, fork f (body steps), parent work, touch, tail.
func forkJoin(t testing.TB, body, parent int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(body)
	m.Steps(parent)
	m.Touch(f)
	m.Step()
	return b.MustBuild()
}

func TestSequentialChainOrder(t *testing.T) {
	b := dag.NewBuilder()
	b.Main().Steps(6)
	g := b.MustBuild()
	res, err := Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	order := res.SeqOrder()
	for i, v := range order {
		if v != dag.NodeID(i) {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialFutureFirstRunsFutureThreadFirst(t *testing.T) {
	g := forkJoin(t, 3, 2)
	res, err := Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	// Future thread (thread 1) nodes must all execute before the fork's
	// right child (the continuation in main).
	fork := g.ThreadFork[1]
	right := g.Nodes[fork].ContChild()
	for id := g.ThreadFirst[1]; id <= g.ThreadLast[1]; id++ {
		if g.Nodes[id].Thread != 1 {
			continue
		}
		if res.When[id] > res.When[right] {
			t.Fatalf("future-first: thread-1 node %d ran after right child %d", id, right)
		}
	}
	// Lemma 4, second property: the right child of the fork immediately
	// follows the future parent (thread 1's last node) in the sequential
	// order.
	futureParent := g.ThreadLast[1]
	if res.When[right] != res.When[futureParent]+1 {
		t.Fatalf("right child at %d, future parent at %d: not immediate",
			res.When[right], res.When[futureParent])
	}
}

func TestSequentialParentFirstRunsParentFirst(t *testing.T) {
	g := forkJoin(t, 3, 2)
	res, err := Sequential(g, ParentFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	fork := g.ThreadFork[1]
	right := g.Nodes[fork].ContChild()
	first := g.ThreadFirst[1]
	if res.When[right] > res.When[first] {
		t.Fatal("parent-first: right child should run before the future thread")
	}
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestParallelOneProcMatchesSequential(t *testing.T) {
	g := forkJoin(t, 5, 4)
	seq, err := Sequential(g, FutureFirst, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, Config{P: 1, Policy: FutureFirst, CacheLines: 8, Control: NewRandomControl(7)})
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	so, po := seq.SeqOrder(), par.SeqOrder()
	for i := range so {
		if so[i] != po[i] {
			t.Fatalf("P=1 order diverges at %d: %d vs %d", i, so[i], po[i])
		}
	}
	if d := Deviations(so, par); d != 0 {
		t.Fatalf("P=1 deviations = %d", d)
	}
	if par.TotalMisses != seq.TotalMisses {
		t.Fatalf("P=1 misses %d != seq %d", par.TotalMisses, seq.TotalMisses)
	}
}

func TestParallelValidatesAndCompletes(t *testing.T) {
	g := forkJoin(t, 50, 50)
	for _, P := range []int{2, 3, 8} {
		for _, pol := range []ForkPolicy{FutureFirst, ParentFirst} {
			eng, err := New(g, Config{P: P, Policy: pol, CacheLines: 4, Control: NewRandomControl(42)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("P=%d %v: %v", P, pol, err)
			}
			if err := res.Validate(g); err != nil {
				t.Fatalf("P=%d %v: %v", P, pol, err)
			}
		}
	}
}

// sleeperControl runs only the allowed processor until a trigger node is
// executed, then wakes everyone; used to force a deterministic steal.
type sleeperControl struct {
	only    ProcID
	trigger dag.NodeID
	victim  ProcID
}

func (c *sleeperControl) Active(p ProcID, v *View) bool {
	if v.Executed(c.trigger) {
		return true
	}
	return p == c.only
}

func (c *sleeperControl) Victim(p ProcID, v *View) ProcID { return c.victim }

func TestForcedStealCausesDeviations(t *testing.T) {
	// Future-first: p0 executes root and fork, then p1 becomes active only
	// after the fork node executed, steals the right child and runs the
	// parent continuation while p0 runs the future thread.
	g := forkJoin(t, 10, 10)
	fork := g.ThreadFork[1]
	seq, err := Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &sleeperControl{only: 0, trigger: fork, victim: 0}
	eng, err := New(g, Config{P: 2, Policy: FutureFirst, Control: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("expected at least one steal")
	}
	d := Deviations(seq.SeqOrder(), res)
	if d == 0 {
		t.Fatal("a steal of the fork's right child must cause deviations")
	}
	// Under future-first on a structured single-touch DAG, only touches and
	// right children of forks may deviate (Section 5.1).
	if other := otherDeviations(g, seq.SeqOrder(), res); len(other) != 0 {
		t.Fatalf("nodes %v deviated and are neither touches nor right children", other)
	}
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestCacheMissAccounting(t *testing.T) {
	// Sequential scan of 10 distinct blocks with C=4: every access misses
	// only when the block is new or evicted; a single pass = 10 cold misses.
	b := dag.NewBuilder()
	m := b.Main()
	for blk := dag.BlockID(0); blk < 10; blk++ {
		m.Access(blk)
	}
	g := b.MustBuild()
	res, err := Sequential(g, FutureFirst, 4, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses != 10 {
		t.Fatalf("misses = %d, want 10", res.TotalMisses)
	}
	// Two passes over 10 blocks with C=4 (LRU, cyclic): all miss.
	b2 := dag.NewBuilder()
	m2 := b2.Main()
	for pass := 0; pass < 2; pass++ {
		for blk := dag.BlockID(0); blk < 10; blk++ {
			m2.Access(blk)
		}
	}
	g2 := b2.MustBuild()
	res2, err := Sequential(g2, FutureFirst, 4, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalMisses != 20 {
		t.Fatalf("misses = %d, want 20", res2.TotalMisses)
	}
}

// TestCompare checks Compare against a count made by hand. The fork-join
// declares its blocks: the root reads 0 and forks; the future thread reads 1
// then 2; the continuation reads 0 then 3; the touch reads 2, the future's
// value. With C = 8 nothing is evicted, so each worker misses once per
// distinct block it reads.
//
// Sequential (future-first): 0, fork, 1, 2, 0, 3, touch — blocks 0,1,2,3
// miss once each: 4. Two workers under sleeperControl: p0 runs the root and
// the fork, p1 wakes and steals the continuation in the same sweep; then p0
// runs the future thread (misses 0, 1, 2) while p1 runs the continuation
// (misses 0, 3), and p1, which finishes the touch's second parent last in
// its sweep, runs the touch too and misses 2: 3 + 3 = 6, two more than the
// sequential run — the continuation's re-read of block 0 and the future
// value crossing the touch edge.
func TestCompare(t *testing.T) {
	b := dag.NewBuilder()
	m := b.Main()
	m.Access(0)
	f := m.Fork()
	f.Access(1)
	f.Access(2)
	m.Access(0)
	m.Access(3)
	m.TouchAccess(f, 2)
	g := b.MustBuild()
	seq, err := Sequential(g, FutureFirst, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &sleeperControl{only: 0, trigger: g.ThreadFork[1], victim: 0}
	eng, err := New(g, Config{P: 2, Policy: FutureFirst, CacheLines: 8, Control: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Misses, []int64{3, 3}) {
		t.Fatalf("per-worker misses %v, want [3 3]", res.Misses)
	}
	cmp := Compare(seq, res)
	if cmp.SeqMisses != 4 || cmp.ParMisses != 6 || cmp.AdditionalMisses != 2 {
		t.Fatalf("Compare = %+v, want 4 sequential, 6 parallel, 2 additional misses", cmp)
	}
	if cmp.Steals != 1 {
		t.Fatalf("%d steals, want the one of the continuation", cmp.Steals)
	}
}

func TestStuckDetection(t *testing.T) {
	g := forkJoin(t, 2, 2)
	// A control that never lets anyone act.
	dead := &sleeperControl{only: NoProc, trigger: dag.None, victim: NoProc}
	eng, err := New(g, Config{P: 2, Control: dead, MaxIdleSweeps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); !errors.Is(err, ErrStuck) {
		t.Fatalf("want ErrStuck, got %v", err)
	}
}

// TestConfigValidation: a configuration the engine cannot run is an error
// naming the bad value — an undefined cache policy and a negative cache size
// included, which are not runs without caches.
func TestConfigValidation(t *testing.T) {
	g := forkJoin(t, 1, 1)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{P: 0}, "P = 0"},
		{Config{P: 1, CacheLines: -1}, "CacheLines = -1"},
		{Config{P: 1, CacheLines: 4, CacheKind: 9}, "kind(9)"},
	} {
		if _, err := New(g, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%+v) = %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
}

func TestRandomControlVictimNeverSelf(t *testing.T) {
	g := forkJoin(t, 1, 1)
	eng, _ := New(g, Config{P: 4, Control: NewRandomControl(9)})
	c := NewRandomControl(11)
	for i := 0; i < 1000; i++ {
		for p := ProcID(0); p < 4; p++ {
			if v := c.Victim(p, &eng.view); v == p || v < 0 || v >= 4 {
				t.Fatalf("victim %d for thief %d", v, p)
			}
		}
	}
}

func TestDeviationRootRule(t *testing.T) {
	// If some processor executes the sequential first node not-first, that
	// is a deviation too.
	seqOrder := []dag.NodeID{0, 1, 2}
	r := &Result{
		Order: []dag.NodeID{1, 0, 2},
		When:  []int32{1, 0, 2},
		Who:   []ProcID{0, 0, 1},
		P:     2,
	}
	if d := Deviations(seqOrder, r); d != 3 {
		// node1: first on proc0 but seq-pred 0 → deviation; node0: after 1,
		// pred None but it IS seq first executed at position 1 → deviation;
		// node2: first on proc1, pred 1 on other proc → deviation.
		t.Fatalf("deviations = %d, want 3", d)
	}
}

func TestPromiseGraphExecutes(t *testing.T) {
	// Local-touch multi-future thread: ensure the engine handles a node with
	// continuation+touch out-edges both enabled (stays on continuation).
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	p1 := f.Promise()
	f.Steps(2)
	m.Step()
	m.TouchPromise(p1, dag.NoBlock)
	m.Steps(2)
	m.Touch(f)
	g := b.MustBuild()
	for _, pol := range []ForkPolicy{FutureFirst, ParentFirst} {
		seq, err := Sequential(g, pol, 0, cache.LRU)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if err := seq.Validate(g); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		eng, err := New(g, Config{P: 3, Policy: pol, Control: NewRandomControl(2)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestSuperFinalGraphExecutes(t *testing.T) {
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	f1 := m.Fork()
	f1.Steps(3)
	m.Step()
	f2 := m.Fork()
	f2.Steps(3)
	m.Steps(2)
	m.Touch(f1)
	g, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Validate(g); err != nil {
		t.Fatal(err)
	}
	// The super final node must execute last.
	if seq.When[g.Final] != int32(g.Len()-1) {
		t.Fatalf("super final executed at %d, want %d", seq.When[g.Final], g.Len()-1)
	}
	eng, err := New(g, Config{P: 3, Control: NewRandomControl(4)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestCentralQueueMode(t *testing.T) {
	g := forkJoin(t, 40, 40)
	for _, P := range []int{1, 4} {
		eng, err := New(g, Config{P: P, CentralQueue: true, CacheLines: 8, Control: AlwaysActive{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if res.Steals != 0 {
			t.Fatalf("central queue mode should not steal, got %d", res.Steals)
		}
	}
}

func TestCentralQueueWorseLocality(t *testing.T) {
	// A wide fork-join with per-branch working sets: depth-first (deque)
	// scheduling keeps each branch's blocks hot; the central FIFO
	// interleaves branches and misses far more, even with one processor.
	b := dag.NewBuilder()
	m := b.Main()
	m.Step()
	var fs []*dag.Thread
	for i := 0; i < 16; i++ {
		f := m.Fork()
		for r := 0; r < 4; r++ {
			for j := 0; j < 4; j++ {
				f.Access(dag.BlockID(i*4 + j)) // branch-private working set
			}
		}
		fs = append(fs, f)
		m.Step()
	}
	for _, f := range fs {
		m.Touch(f)
	}
	m.Step()
	g := b.MustBuild()

	const C = 8
	seq, err := Sequential(g, FutureFirst, C, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, Config{P: 1, CentralQueue: true, CacheLines: C, Control: AlwaysActive{}})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bfs.TotalMisses <= 2*seq.TotalMisses {
		t.Fatalf("central queue misses %d should far exceed deque-discipline %d",
			bfs.TotalMisses, seq.TotalMisses)
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	g := forkJoin(b, 500, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sequential(g, FutureFirst, 64, cache.LRU); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineParallel8(b *testing.B) {
	g := forkJoin(b, 500, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, _ := New(g, Config{P: 8, CacheLines: 64, Control: NewRandomControl(int64(i))})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
