// Package dag implements the computation-DAG model of Herlihy & Liu,
// "Well-Structured Futures and Cache Locality" (PPoPP 2014), Section 2.
//
// A future-parallel computation is a directed acyclic graph. Each node is a
// task of unit work that accesses at most one memory block. Edges are
// continuation edges (thread order), future edges (spawns), and touch edges
// (future value consumption). Every node has in- and out-degree 1 or 2,
// except the distinguished root (in-degree 0), the final node (out-degree 0),
// and — when the graph models a "super final node" computation (Section 6.2)
// — the final node, which may have arbitrary in-degree.
//
// Graphs are constructed with a Builder (see builder.go), which guarantees by
// construction that node IDs are a topological order: every edge points from
// a lower ID to a strictly higher ID.
package dag

import (
	"errors"
	"fmt"
)

// NodeID identifies a node in a Graph. IDs are dense, start at 0 (the root),
// and are assigned in a topological order of the DAG.
type NodeID int32

// None is the sentinel "no node" value.
const None NodeID = -1

// ThreadID identifies a thread: a maximal chain of nodes connected by
// continuation edges. Thread 0 is always the main thread.
type ThreadID int32

// NoThread is the sentinel "no thread" value.
const NoThread ThreadID = -1

// BlockID identifies the memory block a node accesses. A Builder takes any
// identity; a finished Graph numbers the blocks it declares densely (see
// Graph.RawBlocks), and the cache model indexes its tables by those numbers.
type BlockID int32

// NoBlock marks a node that performs no memory access.
const NoBlock BlockID = -1

// EdgeKind distinguishes the three edge types of the model (plus join edges,
// which schedule identically to touch edges but are not counted as touches,
// following the convention of Acar et al. and Spoonhower et al. that the
// paper adopts in the proof of Theorem 10).
type EdgeKind uint8

const (
	// EdgeNone is the zero value; it never appears in a valid graph.
	EdgeNone EdgeKind = iota
	// EdgeCont points from a node to the next node of the same thread.
	EdgeCont
	// EdgeFuture points from a fork to the first node of the spawned thread.
	EdgeFuture
	// EdgeTouch points from a future parent to a touch node in another thread.
	EdgeTouch
	// EdgeJoin is scheduled exactly like EdgeTouch but its target is a join
	// node, not a touch: it does not count toward the touch total t.
	EdgeJoin
)

// String returns the lowercase name of the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCont:
		return "cont"
	case EdgeFuture:
		return "future"
	case EdgeTouch:
		return "touch"
	case EdgeJoin:
		return "join"
	default:
		return "none"
	}
}

// Edge is an outgoing edge of a node.
type Edge struct {
	To   NodeID
	Kind EdgeKind
}

// Node is a task in the computation DAG. The zero value is not meaningful;
// nodes are created through a Builder.
type Node struct {
	// Out holds the outgoing edges; only Out[:NOut] are valid.
	Out [2]Edge
	// NOut is the out-degree (0, 1, or 2).
	NOut uint8
	// NIn is the in-degree (0, 1, 2, or more for a super final node).
	NIn int32
	// Thread is the thread this node belongs to.
	Thread ThreadID
	// Block is the dense id of the memory block accessed by this node, or
	// NoBlock; Graph.RawBlocks gives the identity it was declared with.
	Block BlockID
}

// OutEdges returns the valid outgoing edges of the node.
func (n *Node) OutEdges() []Edge { return n.Out[:n.NOut] }

// ContChild returns the continuation successor of the node, or None.
func (n *Node) ContChild() NodeID {
	for _, e := range n.OutEdges() {
		if e.Kind == EdgeCont {
			return e.To
		}
	}
	return None
}

// FutureChild returns the spawned thread's first node if this node is a fork,
// or None.
func (n *Node) FutureChild() NodeID {
	for _, e := range n.OutEdges() {
		if e.Kind == EdgeFuture {
			return e.To
		}
	}
	return None
}

// IsFork reports whether the node spawns a future thread.
func (n *Node) IsFork() bool { return n.FutureChild() != None }

// TouchInfo records the anatomy of one touch (or join) node, using the
// terminology of Section 2.1: the touch is a node of the toucher's thread
// with two parents, the future parent (last emitted node of the future
// thread) and the local parent (previous node of the toucher's thread).
type TouchInfo struct {
	// Node is the touch node itself.
	Node NodeID
	// FutureParent is the node whose EdgeTouch/EdgeJoin edge targets Node.
	FutureParent NodeID
	// LocalParent is the continuation predecessor of Node, or None when the
	// touch is the super final node reached only by touch edges.
	LocalParent NodeID
	// FutureThread is the thread that computes the touched future.
	FutureThread ThreadID
	// Fork is the corresponding fork: the node that spawned FutureThread.
	// It is None when FutureThread is the main thread (which cannot happen
	// in builder-produced graphs).
	Fork NodeID
	// Join marks a join node (EdgeJoin): scheduled like a touch but not
	// counted in the touch total t.
	Join bool
}

// Graph is an immutable future-parallel computation DAG.
//
// Exported slice fields must be treated as read-only; they are exposed
// directly so that the scheduler simulator can iterate without accessor
// overhead.
type Graph struct {
	// Nodes is indexed by NodeID. IDs are a topological order.
	Nodes []Node
	// Root is the unique node with in-degree 0 (always 0 in built graphs).
	Root NodeID
	// Final is the unique node with out-degree 0.
	Final NodeID
	// ThreadFirst and ThreadLast give each thread's first and last node.
	ThreadFirst, ThreadLast []NodeID
	// ThreadFork gives, for each thread, the fork node that spawned it
	// (None for the main thread).
	ThreadFork []NodeID
	// Touches lists every touch and join node, in creation (= topological)
	// order.
	Touches []TouchInfo
	// SuperFinal reports that the final node is a super final node
	// (Section 6.2): extra touch edges from thread ends are permitted.
	SuperFinal bool
	// RawBlocks maps a dense block id to the identity the node was declared
	// with: the graph's blocks are numbered 0..len(RawBlocks)−1 by first use
	// in node order. Nil when no node accesses memory.
	RawBlocks []BlockID

	span int64 // T∞, set once where the graph is made (Builder.build, ReadBinary)
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// NumThreads returns the number of threads.
func (g *Graph) NumThreads() int { return len(g.ThreadFirst) }

// NumTouches returns t, the number of touch nodes (joins excluded).
func (g *Graph) NumTouches() int {
	t := 0
	for _, ti := range g.Touches {
		if !ti.Join {
			t++
		}
	}
	return t
}

// Work returns T1, the total number of nodes.
func (g *Graph) Work() int64 { return int64(len(g.Nodes)) }

// Span returns T∞, the number of nodes on a longest directed path.
func (g *Graph) Span() int64 { return g.span }

// computeSpan is the longest-path sweep behind Span. The two places that
// make a Graph run it once, after Validate, so a finished graph is never
// written again and any number of goroutines may share it.
func (g *Graph) computeSpan() int64 {
	depth := make([]int64, len(g.Nodes))
	var max int64
	// IDs are topological, so one forward sweep suffices.
	for id := range g.Nodes {
		d := depth[id] + 1
		if d > max {
			max = d
		}
		n := &g.Nodes[id]
		for _, e := range n.OutEdges() {
			if depth[e.To] < d {
				depth[e.To] = d
			}
		}
	}
	return max
}

// numberBlocks replaces the identities the nodes were declared with by dense
// ids, by first use in node order, and keeps the identities in RawBlocks.
// Like computeSpan it runs once, where a graph is made; a graph that declares
// no block allocates nothing here.
func (g *Graph) numberBlocks() {
	var dense map[BlockID]BlockID
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Block == NoBlock {
			continue
		}
		d, ok := dense[n.Block]
		if !ok {
			if dense == nil {
				dense = make(map[BlockID]BlockID)
			}
			d = BlockID(len(g.RawBlocks))
			dense[n.Block] = d
			g.RawBlocks = append(g.RawBlocks, n.Block)
		}
		n.Block = d
	}
}

// Parents returns the reverse adjacency of the graph: Parents()[v] lists the
// IDs of v's predecessors. It is computed on demand in O(V+E).
func (g *Graph) Parents() [][]NodeID {
	parents := make([][]NodeID, len(g.Nodes))
	for id := range g.Nodes {
		for _, e := range g.Nodes[id].OutEdges() {
			parents[e.To] = append(parents[e.To], NodeID(id))
		}
	}
	return parents
}

// Reaches reports whether there is a directed path from u to v (u == v
// counts). IDs are topological, so a path can only increase them: the search
// never leaves the ID interval (u, v), and its cost and its scratch space are
// bounded by that interval's length, whatever the answer.
func (g *Graph) Reaches(u, v NodeID) bool {
	if u == None || v == None || u > v {
		return false
	}
	if u == v {
		return true
	}
	seen := make([]bool, v-u) // seen[w-u] for u < w < v
	stack := []NodeID{u}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Nodes[w].OutEdges() {
			if e.To == v {
				return true
			}
			if e.To < v && !seen[e.To-u] {
				seen[e.To-u] = true
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// Validation errors returned by Graph.Validate.
var (
	ErrEmpty        = errors.New("dag: graph has no nodes")
	ErrNotTopo      = errors.New("dag: node IDs are not a topological order")
	ErrDegree       = errors.New("dag: node degree violates model conventions")
	ErrRootFinal    = errors.New("dag: root/final node malformed")
	ErrForkChildren = errors.New("dag: a fork child is a touch node")
	ErrDisconnected = errors.New("dag: node unreachable from root")
)

// Validate checks the structural conventions of Section 2.1:
//
//   - node IDs form a topological order (edges strictly increase IDs);
//   - the root has in-degree 0 and is node 0; the final node has out-degree 0
//     and is the only such node;
//   - every other node has in- and out-degree 1 or 2 (in-degree of the final
//     node may exceed 2 only when SuperFinal is set);
//   - both children of a fork have in-degree 1 (so neither is a touch);
//   - every node is reachable from the root.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return ErrEmpty
	}
	if g.Root != 0 {
		return fmt.Errorf("%w: root is %d, want 0", ErrRootFinal, g.Root)
	}
	in := make([]int32, len(g.Nodes))
	finals := 0
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.NOut == 0 {
			finals++
			if NodeID(id) != g.Final {
				return fmt.Errorf("%w: node %d has out-degree 0 but is not Final", ErrRootFinal, id)
			}
		}
		for _, e := range n.OutEdges() {
			if e.To <= NodeID(id) || int(e.To) >= len(g.Nodes) {
				return fmt.Errorf("%w: edge %d->%d", ErrNotTopo, id, e.To)
			}
			in[e.To]++
		}
	}
	if finals != 1 {
		return fmt.Errorf("%w: %d nodes with out-degree 0, want exactly 1", ErrRootFinal, finals)
	}
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if in[id] != n.NIn {
			return fmt.Errorf("%w: node %d records in-degree %d, actual %d", ErrDegree, id, n.NIn, in[id])
		}
		switch {
		case NodeID(id) == g.Root:
			if in[id] != 0 {
				return fmt.Errorf("%w: root has in-degree %d", ErrRootFinal, in[id])
			}
		case in[id] == 0:
			return fmt.Errorf("%w: node %d", ErrDisconnected, id)
		case in[id] > 2 && !(g.SuperFinal && NodeID(id) == g.Final):
			return fmt.Errorf("%w: node %d has in-degree %d", ErrDegree, id, in[id])
		}
		if n.NOut > 2 {
			return fmt.Errorf("%w: node %d has out-degree %d", ErrDegree, id, n.NOut)
		}
		// Children of a fork must both have in-degree 1 (Section 2.1: fork
		// children cannot be touches).
		if n.IsFork() {
			for _, e := range n.OutEdges() {
				if e.Kind == EdgeTouch || e.Kind == EdgeJoin {
					return fmt.Errorf("%w: fork %d has a touch out-edge", ErrDegree, id)
				}
			}
		}
	}
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if !n.IsFork() {
			continue
		}
		for _, e := range n.OutEdges() {
			if g.Nodes[e.To].NIn != 1 {
				return fmt.Errorf("%w: fork %d child %d has in-degree %d", ErrForkChildren, id, e.To, g.Nodes[e.To].NIn)
			}
		}
	}
	// Reachability from root: IDs are topological, so a single sweep works.
	reach := make([]bool, len(g.Nodes))
	reach[g.Root] = true
	for id := range g.Nodes {
		if !reach[id] {
			return fmt.Errorf("%w: node %d", ErrDisconnected, id)
		}
		for _, e := range g.Nodes[id].OutEdges() {
			reach[e.To] = true
		}
	}
	return nil
}
