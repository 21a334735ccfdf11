package sim

import (
	"fmt"
	"testing"

	"futurelocality/internal/dag"
)

// referenceRun is Run as it was before its sweep became one loop: every
// activation asks the Control, goes through referenceAct, and executes
// through referenceExecute, all on the engine's fields. It is the oracle
// checkReuse holds Run to, node for node: the same Result and the same
// ErrStuck text.
func (e *Engine) referenceRun() (*Result, error) {
	total := e.g.Len()
	idle := 0
	for e.executed < total {
		progressed := false
		for p := ProcID(0); int(p) < e.cfg.P; p++ {
			if !e.ctrl.Active(p, &e.view) {
				continue
			}
			if e.referenceAct(p) {
				progressed = true
			}
		}
		e.steps++
		if progressed {
			idle = 0
		} else {
			idle++
			if idle >= e.cfg.MaxIdleSweeps {
				return nil, fmt.Errorf("%w: %d/%d nodes executed after %d sweeps",
					ErrStuck, e.executed, total, e.steps)
			}
		}
	}
	return e.result(), nil
}

// referenceAct performs one processor activation; reports whether observable
// progress happened (a node executed, a pop succeeded, or a steal succeeded).
func (e *Engine) referenceAct(p ProcID) bool {
	if e.assigned[p] != dag.None {
		e.referenceExecute(p, e.assigned[p])
		return true
	}
	if e.cfg.CentralQueue {
		// Breadth-first baseline: take the oldest enabled node.
		if v, ok := e.central.StealTop(); ok {
			e.pops++
			e.referenceExecute(p, v)
			return true
		}
		return false
	}
	// Pop own deque; a popped node executes in the same activation.
	if v, ok := e.deques[p].PopBottom(); ok {
		e.pops++
		e.referenceExecute(p, v)
		return true
	}
	// Steal one node from the victim the Control picks.
	victim := e.ctrl.Victim(p, &e.view)
	if victim == NoProc || victim == p || int(victim) >= e.cfg.P {
		return false
	}
	e.stealAtt++
	var v dag.NodeID
	var ok bool
	if e.cfg.ThiefStealsBottom {
		v, ok = e.deques[victim].PopBottom()
	} else {
		v, ok = e.deques[victim].StealTop()
	}
	if !ok {
		return false
	}
	e.steals++
	e.stolen = append(e.stolen, v)
	e.assigned[p] = v
	return true
}

// referenceExecute runs node v on processor p and chooses p's next
// assignment.
func (e *Engine) referenceExecute(p ProcID, v dag.NodeID) {
	if w := e.when[v]; w != -1 {
		panic(fmt.Sprintf("sim: node %d executed when not ready (when = %d)", v, w))
	}
	n := &e.g.Nodes[v]
	e.when[v] = int32(e.executed)
	e.order[e.executed] = v
	e.who[v] = p
	e.executed++

	// Enable children.
	var enabled [2]dag.NodeID
	var kinds [2]dag.EdgeKind
	ne := 0
	for _, edge := range n.OutEdges() {
		w := e.when[edge.To] + 1
		if w > -1 {
			panic(fmt.Sprintf("sim: node %d over-enabled", edge.To))
		}
		e.when[edge.To] = w
		if w == -1 {
			enabled[ne] = edge.To
			kinds[ne] = edge.Kind
			ne++
		}
	}

	if e.cfg.CentralQueue {
		// No continuations: every enabled node joins the global FIFO.
		for i := 0; i < ne; i++ {
			e.central.PushBottom(enabled[i])
		}
		e.assigned[p] = dag.None
		return
	}

	switch ne {
	case 0:
		e.assigned[p] = dag.None
	case 1:
		e.assigned[p] = enabled[0]
	default:
		// Two children enabled. At a fork the policy picks; at a future
		// parent whose touch was already locally enabled, the processor
		// stays on its own thread (continuation) and pushes the touch.
		exec, push := 0, 1
		if n.IsFork() {
			futureIdx := 0
			if kinds[1] == dag.EdgeFuture {
				futureIdx = 1
			}
			if e.cfg.Policy == FutureFirst {
				exec, push = futureIdx, 1-futureIdx
			} else {
				exec, push = 1-futureIdx, futureIdx
			}
		} else {
			contIdx := -1
			for i := 0; i < ne; i++ {
				if kinds[i] == dag.EdgeCont {
					contIdx = i
				}
			}
			if contIdx >= 0 {
				exec, push = contIdx, 1-contIdx
			}
		}
		e.deques[p].PushBottom(enabled[push])
		e.assigned[p] = enabled[exec]
	}
}

// TestTwoEdgesOneTarget runs a graph whose root sends both its out-edges to
// one node, as a decoded graph may: that node counts down two parents at
// once, so the second edge must read when after the first has written it.
// Run is held to referenceRun.
func TestTwoEdgesOneTarget(t *testing.T) {
	g := &dag.Graph{Nodes: []dag.Node{
		{Out: [2]dag.Edge{{To: 1, Kind: dag.EdgeCont}, {To: 1, Kind: dag.EdgeTouch}}, NOut: 2},
		{Out: [2]dag.Edge{{To: 2, Kind: dag.EdgeCont}}, NOut: 1, NIn: 2},
		{NIn: 1},
	}, Final: 2}
	for p := 1; p <= 3; p++ {
		cfg := Config{P: p, MaxIdleSweeps: 10}
		ref, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := ref.referenceRun()
		got, err := eng.Run()
		if wantErr != nil || err != nil {
			t.Fatalf("P = %d: Run returned %v, referenceRun %v", p, err, wantErr)
		}
		if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
			t.Fatalf("P = %d: Run\n got %s\nwant (referenceRun) %s", p, g, w)
		}
	}
}
