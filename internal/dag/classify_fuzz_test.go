package dag_test

import (
	"errors"
	"reflect"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

// numFamilies is the number of generators family selects between.
const numFamilies = 15

// family builds one small member of every internal/graphs generator —
// the random structured programs, the regular families, and the paper's
// figures, including the Figure 6 family internal/adversary schedules —
// sized by two fuzz bytes so that the quadratic reference stays cheap.
func family(kind, a, b uint8, seed int64) *dag.Graph {
	x, y := int(a), int(b)
	switch kind % numFamilies {
	case 0:
		return graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 20 + 4*x, MaxDepth: 2 + y%8})
	case 1:
		return graphs.ForkJoinTree(x%6, 1+y%3, false)
	case 2:
		return graphs.Fib(x%12, 2+y%3)
	case 3:
		return graphs.Quicksort(1+x%64, 1+y%8, seed, false)
	case 4:
		g, _ := graphs.Pipeline(1+x%5, 1+y%8, 1+(x+y)%3, false)
		return g
	case 5:
		g, _ := graphs.Fig6a(1+x%6, 1+y%4, false)
		return g
	case 6:
		g, _ := graphs.Fig6b(1+x%6, 1+y%4, false)
		return g
	case 7:
		g, _ := graphs.Fig6c(1+x%3, 1+y%4, 1+(x+y)%3, false)
		return g
	case 8:
		g, _ := graphs.Fig2(1+x%6, 1+y%4, false)
		return g
	case 9:
		g, _ := graphs.Fig7b(2+2*(x%3), 1+y%4, 1+(x+y)%3, false)
		return g
	case 10:
		g, _ := graphs.Fig8(2+2*(x%2), 1+y%4, 1+(x+y)%3, false)
		return g
	case 11:
		g, _ := graphs.Fig3(1+x%6, 1+y%4, false)
		return g
	case 12:
		return graphs.Fig4()
	case 13:
		return graphs.Fig5a()
	default:
		return graphs.Fig5b()
	}
}

// declared is the block identity node v of g was declared with, or NoBlock.
func declared(g *dag.Graph, v dag.NodeID) dag.BlockID {
	if b := g.Nodes[v].Block; b != dag.NoBlock {
		return g.RawBlocks[b]
	}
	return dag.NoBlock
}

// rebuild replays g (built without a super final node) through a Builder,
// so every variant it returns has passed Validate, with up to two
// departures from a faithful copy:
//
//   - super: finish with BuildSuperFinal; the k-th thread-closing touch is
//     left out when bit k%16 of drop is set (its node stays, as a plain
//     task), so the super final node becomes that thread's only touch;
//   - src < at: the thread about to receive node at first touches a promise
//     captured at node src — one extra touch edge between two arbitrary
//     points of a structured graph, which is how unstructured ones arise.
func rebuild(g *dag.Graph, super bool, drop uint16, src, at dag.NodeID) (*dag.Graph, error) {
	if g.SuperFinal {
		return nil, errors.New("rebuild: source already has a super final node")
	}
	b := dag.NewBuilder()
	threads := make([]*dag.Thread, g.NumThreads())
	threads[0] = b.Main()

	touchAt := map[dag.NodeID]dag.TouchInfo{}
	from := map[dag.NodeID][]dag.NodeID{} // future parent → its touch nodes
	closing := make([]dag.NodeID, g.NumThreads())
	for i := range closing {
		closing[i] = dag.None
	}
	for _, ti := range g.Touches {
		touchAt[ti.Node] = ti
		from[ti.FutureParent] = append(from[ti.FutureParent], ti.Node)
		if ti.FutureParent == g.ThreadLast[ti.FutureThread] {
			closing[ti.FutureThread] = ti.Node
		}
	}
	promises := map[dag.NodeID]*dag.Promise{} // touch node → its captured promise
	var extra *dag.Promise
	closed := 0

	for id := range g.Nodes {
		v, n := dag.NodeID(id), &g.Nodes[id]
		t, blk := threads[n.Thread], declared(g, v)
		if v == at && extra != nil {
			t.TouchPromise(extra, dag.NoBlock)
		}
		ti, isTouch := touchAt[v]
		switch {
		case isTouch && closing[ti.FutureThread] == v:
			closed++
			switch {
			case super && drop>>(closed%16)&1 == 1:
				t.Access(blk)
			case ti.Join:
				t.JoinAccess(threads[ti.FutureThread], blk)
			default:
				t.TouchAccess(threads[ti.FutureThread], blk)
			}
		case isTouch:
			t.TouchPromise(promises[v], blk)
		case n.IsFork():
			threads[g.Nodes[n.FutureChild()].Thread] = t.ForkAccess(blk)
		default:
			t.Access(blk)
		}
		for _, w := range from[v] {
			if closing[touchAt[w].FutureThread] != w {
				promises[w] = t.Promise()
			}
		}
		if v == src && src < at {
			extra = t.Promise()
		}
	}
	if super {
		return b.BuildSuperFinal()
	}
	return b.Build()
}

// FuzzClassify holds Classify to classifyReference — all five verdicts and
// every Violations string — on every generator family, with and without a
// super final node, and on unstructured mutants of each.
func FuzzClassify(f *testing.F) {
	for kind := uint8(0); kind < numFamilies; kind++ {
		f.Add(kind, uint8(3), uint8(2), int64(1), false, uint16(0), uint16(0), uint16(0))
		f.Add(kind, uint8(5), uint8(1), int64(2), true, uint16(0), uint16(0), uint16(0))
		f.Add(kind, uint8(4), uint8(3), int64(3), true, uint16(0xaaaa), uint16(0), uint16(0))
		f.Add(kind, uint8(7), uint8(2), int64(4), true, uint16(0xffff), uint16(2), uint16(9))
		f.Add(kind, uint8(6), uint8(3), int64(5), false, uint16(0), uint16(1), uint16(6))
		f.Add(kind, uint8(9), uint8(5), int64(6), false, uint16(0), uint16(4), uint16(40))
	}
	f.Fuzz(func(t *testing.T, kind, a, b uint8, seed int64, super bool, drop, src, at uint16) {
		base := family(kind, a, b, seed)
		n := uint16(base.Len())
		g, err := rebuild(base, super, drop, dag.NodeID(src%n), dag.NodeID(at%n))
		if err != nil {
			// The extra touch landed where the model forbids one (a fork's
			// child, a node already at out-degree 2): not a graph.
			t.Skip(err)
		}
		if !super && drop == 0 && src%n >= at%n && !sameTables(g, base) {
			t.Fatalf("faithful rebuild of family %d differs from its source", kind%numFamilies)
		}
		got, walked := dag.ClassifyCost(g)
		want := classifyReference(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("family %d a=%d b=%d seed=%d super=%v drop=%#x src=%d at=%d (%d nodes):\n got %v %v\nwant %v %v",
				kind%numFamilies, a, b, seed, super, drop, src%n, at%n, g.Len(), got, got.Violations, want, want.Violations)
		}
		// Two searches per fork, each entering a node at most once.
		if bound := 4 * int64(g.NumThreads()) * int64(g.Len()); walked > bound {
			t.Fatalf("walked %d edges, more than two full sweeps per fork (%d)", walked, bound)
		}
	})
}
