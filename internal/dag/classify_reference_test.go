package dag_test

import (
	"fmt"

	"futurelocality/internal/dag"
)

// classifyReference is the classifier as it stood before the ID-bounded
// search: per fork, rescan all of g.Touches for the thread's touches, clear
// two V-sized mark arrays and run two unbounded reachability sweeps.
// O(F·(V+E) + T·t), no reliance on topological IDs — the oracle FuzzClassify
// holds Classify to, verdict for verdict and string for string.
func classifyReference(g *dag.Graph) dag.Class {
	c := dag.Class{
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

	descendantsInto := func(start dag.NodeID, seen []bool) {
		if start == dag.None || seen[start] {
			return
		}
		stack := []dag.NodeID{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Nodes[v].OutEdges() {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	fromFork := make([]bool, len(g.Nodes))
	fromRight := make([]bool, len(g.Nodes))

	for tid := 1; tid < g.NumThreads(); tid++ {
		fork := g.ThreadFork[tid]
		if fork == dag.None {
			continue
		}
		right := g.Nodes[fork].ContChild()
		var touches []dag.TouchInfo
		for _, ti := range g.Touches {
			if ti.FutureThread == dag.ThreadID(tid) {
				touches = append(touches, ti)
			}
		}

		clear(fromFork)
		clear(fromRight)
		descendantsInto(fork, fromFork)
		descendantsInto(right, fromRight)

		// Definition 1.
		anyRight := false
		for _, ti := range touches {
			if ti.LocalParent != dag.None && !fromFork[ti.LocalParent] {
				fail("structured", "touch %d of thread %d: local parent %d not a descendant of fork %d",
					ti.Node, tid, ti.LocalParent, fork)
			}
			if fromRight[ti.Node] {
				anyRight = true
			}
		}
		if !anyRight {
			fail("structured", "thread %d: no touch is a descendant of fork %d's right child", tid, fork)
		}

		var ordinary []dag.TouchInfo
		for _, ti := range touches {
			if !(g.SuperFinal && ti.Node == g.Final) {
				ordinary = append(ordinary, ti)
			}
		}

		// Definition 2.
		switch {
		case len(touches) != 1:
			fail("single-touch", "thread %d touched %d times", tid, len(touches))
		case !fromRight[touches[0].Node]:
			fail("single-touch", "thread %d: touch %d not a descendant of fork %d's right child",
				tid, touches[0].Node, fork)
		}

		// Definition 13.
		switch {
		case len(touches) < 1 || len(touches) > 2:
			fail("single-touch-super-final", "thread %d touched %d times", tid, len(touches))
		case len(ordinary) > 1:
			fail("single-touch-super-final", "thread %d has %d non-final touches", tid, len(ordinary))
		case len(ordinary) == 1 && !fromRight[ordinary[0].Node]:
			fail("single-touch-super-final", "thread %d: touch %d not a descendant of fork %d's right child",
				tid, ordinary[0].Node, fork)
		}

		// Definition 3.
		parent := g.Nodes[fork].Thread
		for _, ti := range touches {
			if g.Nodes[ti.Node].Thread != parent {
				fail("local-touch", "thread %d: touch %d is in thread %d, not parent thread %d",
					tid, ti.Node, g.Nodes[ti.Node].Thread, parent)
			} else if !fromRight[ti.Node] {
				fail("local-touch", "thread %d: touch %d not a descendant of fork %d's right child",
					tid, ti.Node, fork)
			}
		}

		// Definition 17.
		for _, ti := range ordinary {
			if g.Nodes[ti.Node].Thread != parent {
				fail("local-touch-super-final", "thread %d: touch %d is in thread %d, not parent thread %d",
					tid, ti.Node, g.Nodes[ti.Node].Thread, parent)
			} else if !fromRight[ti.Node] {
				fail("local-touch-super-final", "thread %d: touch %d not a descendant of fork %d's right child",
					tid, ti.Node, fork)
			}
		}
	}
	return c
}
