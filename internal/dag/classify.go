package dag

import "fmt"

// Class is the result of classifying a computation DAG against the structure
// definitions of Section 4 (and Section 6.2 for super-final variants).
type Class struct {
	// Structured: Definition 1. For the future thread t of any fork v,
	// (1) the local parents of t's touches are descendants of v, and
	// (2) at least one touch of t is a descendant of v's right child.
	Structured bool
	// SingleTouch: Definition 2. Structured, and each future thread is
	// touched exactly once, by a descendant of its fork's right child.
	SingleTouch bool
	// LocalTouch: Definition 3. Each future thread is touched only at nodes
	// of its parent thread, all descendants of the fork's right child.
	LocalTouch bool
	// SingleTouchSuperFinal: Definition 13. Each future thread has one or
	// two touches: a descendant of the fork's right child and/or the super
	// final node.
	SingleTouchSuperFinal bool
	// LocalTouchSuperFinal: Definition 17. Touched only by the parent thread
	// (at descendants of the fork's right child) and/or the super final node.
	LocalTouchSuperFinal bool

	// Violations explains, for each definition that failed, the first
	// violation found. Keys: "structured", "single-touch", "local-touch",
	// "single-touch-super-final", "local-touch-super-final".
	Violations map[string]string
}

// String summarizes the class compactly.
func (c Class) String() string {
	names := []struct {
		ok   bool
		name string
	}{
		{c.Structured, "structured"},
		{c.SingleTouch, "single-touch"},
		{c.LocalTouch, "local-touch"},
		{c.SingleTouchSuperFinal, "single-touch-super-final"},
		{c.LocalTouchSuperFinal, "local-touch-super-final"},
	}
	out := ""
	for _, n := range names {
		if n.ok {
			if out != "" {
				out += "+"
			}
			out += n.name
		}
	}
	if out == "" {
		return "unstructured"
	}
	return out
}

// Classify evaluates every structure definition on g, which must satisfy
// Graph.Validate (Builder.Build and the codec both enforce it): the searches
// rely on node IDs being a topological order.
//
// Cost: one counting sort of g.Touches by future thread, then per fork a
// search from its right child and, only if that leaves a local parent
// unreached, one from the fork itself. A search is bounded twice over. Every
// edge strictly increases IDs, so no path to a node passes through a larger
// ID, and the search is cut at the largest node the definitions ask about
// for that thread — the last of its touches and their local parents; even
// a search that fails costs at most the ID distance from the fork to that
// node, not the size of the graph. And it stops once every node asked about
// is reached, following continuation edges first, so on a structured graph
// it walks the chain from the fork to its touch and none of the futures
// forked on the way: Fib(16,2), 11 175 nodes and 3 192 forks, is classified
// by examining 9 576 edges (BenchmarkClassify, TestClassifyCostScales).
func Classify(g *Graph) Class {
	c, _ := classify(g)
	return c
}

// touchesByThread groups g.Touches by the thread that computes the touched
// future: thread tid's touches (joins included) are
// grouped[start[tid]:start[tid+1]], still in topological order.
func touchesByThread(g *Graph) (start []int32, grouped []TouchInfo) {
	start = make([]int32, g.NumThreads()+1)
	for _, ti := range g.Touches {
		start[ti.FutureThread+1]++
	}
	for tid := 1; tid < len(start); tid++ {
		start[tid] += start[tid-1]
	}
	grouped = make([]TouchInfo, len(g.Touches))
	fill := append([]int32(nil), start[:g.NumThreads()]...)
	for _, ti := range g.Touches {
		grouped[fill[ti.FutureThread]] = ti
		fill[ti.FutureThread]++
	}
	return start, grouped
}

// reach is the scratch state of classify's reachability searches. mark[v]
// is the stamp of the last search that reached v, or of the last question
// asked about v; every search and every set of questions draws a fresh
// stamp, so nothing is ever cleared. (Four stamps per fork at most, and a
// graph of int32 node IDs has fewer than 2³⁰ forks.)
type reach struct {
	g      *Graph
	mark   []uint32
	stamp  uint32
	stack  []NodeID
	walked int64 // edges examined, over all searches
}

// fresh draws a stamp no node carries yet.
func (r *reach) fresh() uint32 {
	r.stamp++
	return r.stamp
}

// ask stamps v as a node the next search is looking for and reports whether
// that is news (v was not already asked about under this stamp).
func (r *reach) ask(v NodeID, want uint32) bool {
	if r.mark[v] == want {
		return false
	}
	r.mark[v] = want
	return true
}

// search stamps nodes reachable from start (inclusive) whose ID is at most
// limit, and returns its stamp. It follows continuation edges first — the
// touch a fork is matched with lies ahead on some thread's own chain, not
// inside the futures forked along the way — and stops as soon as it has
// reached all asked nodes, those carrying the stamp want. If it returns
// with some still unreached it has stamped everything reachable below
// limit: that region is closed under reachability, and a later search may
// pass its stamp as covered to stay out of it (0: no such region).
func (r *reach) search(start, limit NodeID, want uint32, asked int, covered uint32) uint32 {
	stamp := r.fresh()
	if start == None || start > limit || asked == 0 {
		return stamp
	}
	if covered == 0 {
		covered = stamp
	}
	if r.mark[start] == want {
		asked--
	}
	r.mark[start] = stamp
	r.stack = append(r.stack[:0], start)
	for len(r.stack) > 0 && asked > 0 {
		v := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for v != None && asked > 0 {
			next := None
			for _, e := range r.g.Nodes[v].OutEdges() {
				r.walked++
				m := r.mark[e.To]
				if e.To > limit || m == stamp || m == covered {
					continue
				}
				if m == want {
					asked--
				}
				r.mark[e.To] = stamp
				if e.Kind == EdgeCont {
					next = e.To
				} else {
					r.stack = append(r.stack, e.To)
				}
			}
			v = next
		}
	}
	return stamp
}

// classify is Classify plus the number of edges its searches examined, the
// cost the scaling test pins without a clock.
func classify(g *Graph) (Class, int64) {
	c := Class{
		Structured:            true,
		SingleTouch:           true,
		LocalTouch:            true,
		SingleTouchSuperFinal: true,
		LocalTouchSuperFinal:  true,
		Violations:            map[string]string{},
	}
	fail := func(def, format string, args ...any) {
		if _, dup := c.Violations[def]; !dup {
			c.Violations[def] = fmt.Sprintf(format, args...)
		}
		switch def {
		case "structured":
			c.Structured = false
		case "single-touch":
			c.SingleTouch = false
		case "local-touch":
			c.LocalTouch = false
		case "single-touch-super-final":
			c.SingleTouchSuperFinal = false
		case "local-touch-super-final":
			c.LocalTouchSuperFinal = false
		}
	}
	if !g.SuperFinal {
		fail("single-touch-super-final", "graph has no super final node")
		fail("local-touch-super-final", "graph has no super final node")
	}

	start, grouped := touchesByThread(g)
	r := reach{g: g, mark: make([]uint32, len(g.Nodes))}
	var ordinary []TouchInfo // reused across forks

	for tid := 1; tid < g.NumThreads(); tid++ {
		fork := g.ThreadFork[tid]
		if fork == None {
			continue // unreachable for builder graphs
		}
		right := g.Nodes[fork].ContChild()
		touches := grouped[start[tid]:start[tid+1]]

		// The definitions ask two things. Which touches descend from the
		// right child? And which local parents descend from the fork — from
		// the right child, that is, or failing that from the fork through
		// its future child? No path to a node passes a larger ID, so each
		// search is cut at the largest node asked about.
		want, asked, limit := r.fresh(), 0, fork
		for _, ti := range touches {
			if r.ask(ti.Node, want) {
				asked++
			}
			if ti.LocalParent != None && r.ask(ti.LocalParent, want) {
				asked++
			}
			limit = max(limit, ti.Node, ti.LocalParent)
		}
		rightStamp := r.search(right, limit, want, asked, 0)
		stillWant, asked := r.fresh(), 0
		for _, ti := range touches {
			if ti.LocalParent != None && r.mark[ti.LocalParent] == want && r.ask(ti.LocalParent, stillWant) {
				asked++
			}
		}
		forkStamp := r.search(fork, limit, stillWant, asked, rightStamp)
		fromRight := func(v NodeID) bool { return r.mark[v] == rightStamp }
		fromFork := func(v NodeID) bool { return r.mark[v] == rightStamp || r.mark[v] == forkStamp }

		// A definition that has failed is settled — only its first violation
		// is reported — so its block is skipped from then on.

		// Definition 1.
		if c.Structured {
			anyRight := false
			for _, ti := range touches {
				if ti.LocalParent != None && !fromFork(ti.LocalParent) {
					fail("structured", "touch %d of thread %d: local parent %d not a descendant of fork %d",
						ti.Node, tid, ti.LocalParent, fork)
				}
				if fromRight(ti.Node) {
					anyRight = true
				}
			}
			if !anyRight {
				fail("structured", "thread %d: no touch is a descendant of fork %d's right child", tid, fork)
			}
		}

		// Split touches into the super final node vs. ordinary ones.
		ordinary = ordinary[:0]
		for _, ti := range touches {
			if !(g.SuperFinal && ti.Node == g.Final) {
				ordinary = append(ordinary, ti)
			}
		}

		// Definition 2: exactly one touch, descendant of the right child.
		if c.SingleTouch {
			switch {
			case len(touches) != 1:
				fail("single-touch", "thread %d touched %d times", tid, len(touches))
			case !fromRight(touches[0].Node):
				fail("single-touch", "thread %d: touch %d not a descendant of fork %d's right child",
					tid, touches[0].Node, fork)
			}
		}

		// Definition 13: at least one, at most two touches; every ordinary
		// touch (at most one) descends from the right child; the other may
		// only be the super final node.
		if c.SingleTouchSuperFinal {
			switch {
			case len(touches) < 1 || len(touches) > 2:
				fail("single-touch-super-final", "thread %d touched %d times", tid, len(touches))
			case len(ordinary) > 1:
				fail("single-touch-super-final", "thread %d has %d non-final touches", tid, len(ordinary))
			case len(ordinary) == 1 && !fromRight(ordinary[0].Node):
				fail("single-touch-super-final", "thread %d: touch %d not a descendant of fork %d's right child",
					tid, ordinary[0].Node, fork)
			}
		}

		// Definition 3: all touches at nodes of the parent thread, which are
		// descendants of the right child. Definition 17: the same of the
		// ordinary touches — the super final node may touch as well.
		parent := g.Nodes[fork].Thread
		local := func(def string, touches []TouchInfo) {
			for _, ti := range touches {
				if g.Nodes[ti.Node].Thread != parent {
					fail(def, "thread %d: touch %d is in thread %d, not parent thread %d",
						tid, ti.Node, g.Nodes[ti.Node].Thread, parent)
				} else if !fromRight(ti.Node) {
					fail(def, "thread %d: touch %d not a descendant of fork %d's right child",
						tid, ti.Node, fork)
				}
			}
		}
		if c.LocalTouch {
			local("local-touch", touches)
		}
		if c.LocalTouchSuperFinal {
			local("local-touch-super-final", ordinary)
		}
	}
	return c, r.walked
}
