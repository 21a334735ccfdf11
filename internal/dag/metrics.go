package dag

// criticalPath returns one longest directed path in the graph, root-to-sink
// order, whose length equals Span(). Useful for diagnosing which chain of
// forks/touches dominates T∞.
func (g *Graph) criticalPath() []NodeID {
	if len(g.Nodes) == 0 {
		return nil
	}
	depth := make([]int64, len(g.Nodes))
	pred := make([]NodeID, len(g.Nodes))
	for i := range pred {
		pred[i] = None
	}
	best := NodeID(0)
	for id := range g.Nodes {
		d := depth[id] + 1
		for _, e := range g.Nodes[id].OutEdges() {
			if depth[e.To] < d {
				depth[e.To] = d
				pred[e.To] = NodeID(id)
			}
		}
		if depth[id] >= depth[best] {
			best = NodeID(id)
		}
	}
	var rev []NodeID
	for v := best; v != None; v = pred[v] {
		rev = append(rev, v)
	}
	out := make([]NodeID, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// isForkJoin reports whether the computation is a strict fork-join (Cilk
// spawn/sync) program: every future thread is touched exactly once, by its
// own parent thread, and within each thread the touch order is the reverse
// of the fork order among the futures alive at each touch (LIFO, as an
// implicit sync would produce). The paper observes that fork-join programs
// are exactly such structured single-touch computations; MethodA of
// Figure 5(a) — touching out of creation order — fails this test while
// remaining structured single-touch.
func (g *Graph) isForkJoin() bool {
	c := Classify(g)
	if !c.SingleTouch || !c.LocalTouch {
		return false
	}
	// Per creating thread, touches must consume the most recently forked
	// untouched future (LIFO).
	type ev struct {
		pos    NodeID // fork or touch node id (creation order = thread order)
		thread ThreadID
		fork   bool
	}
	events := map[ThreadID][]ev{}
	for tid := 1; tid < g.NumThreads(); tid++ {
		fork := g.ThreadFork[tid]
		parent := g.Nodes[fork].Thread
		events[parent] = append(events[parent], ev{pos: fork, thread: ThreadID(tid), fork: true})
	}
	for _, ti := range g.Touches {
		parent := g.Nodes[ti.Node].Thread
		events[parent] = append(events[parent], ev{pos: ti.Node, thread: ti.FutureThread})
	}
	for _, evs := range events {
		// Events of one thread, by node id = thread order.
		for i := 1; i < len(evs); i++ {
			for j := i; j > 0 && evs[j-1].pos > evs[j].pos; j-- {
				evs[j-1], evs[j] = evs[j], evs[j-1]
			}
		}
		var stack []ThreadID
		for _, e := range evs {
			if e.fork {
				stack = append(stack, e.thread)
				continue
			}
			if len(stack) == 0 || stack[len(stack)-1] != e.thread {
				return false
			}
			stack = stack[:len(stack)-1]
		}
	}
	return true
}
