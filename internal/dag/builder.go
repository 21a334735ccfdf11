package dag

import (
	"errors"
	"fmt"
	"slices"
)

// Builder constructs computation DAGs with a program-like API that mirrors
// how future-parallel code executes:
//
//	b := dag.NewBuilder()
//	main := b.Main()
//	main.Step()                 // a unit task
//	f := main.Fork()            // spawn a future thread
//	f.Access(3)                 // future thread does work
//	main.Step()                 // parent thread continues (fork's right child)
//	main.Touch(f)               // touch: consumes f, ends thread f
//	g, err := b.Build()
//
// Node IDs are assigned in creation order, and the API only permits edges
// from already-created nodes to new nodes, so IDs are a topological order by
// construction (Graph.validate re-checks this invariant).
//
// The builder does not enforce the structure definitions of Section 4 —
// arbitrary (even unstructured) DAGs can be built, which the worst-case
// generators need. Classification is a separate step (Classify).
type Builder struct {
	nodes       []Node
	threadFirst []NodeID
	threadLast  []NodeID
	threadFork  []NodeID
	touches     []TouchInfo
	threads     []*Thread
	// slab is the chunk new Thread handles are carved from. A full chunk is
	// replaced, never grown in place, so handles into older chunks stay valid.
	slab  []Thread
	err   error // first construction error, reported by Build
	built bool
}

// Thread is a handle to one thread under construction. All methods append
// nodes to this thread or record structure; handles are invalidated by Build.
type Thread struct {
	b  *Builder
	id ThreadID
	// last is the most recent node of the thread, None before the first node.
	last NodeID
	// pendingFork, when not None, is a node (fork or this thread's creator)
	// whose edge to this thread's next node has not been materialized yet.
	// For a new thread it is the fork (EdgeFuture); after Fork it is the fork
	// node itself (EdgeCont to the right child).
	pendingFrom NodeID
	pendingKind EdgeKind
	closed      bool
}

// Promise captures a point in a future thread whose value can be touched
// later, enabling local-touch computations in which one thread computes
// several futures (Definition 3 allows this). The promise's source node is
// the thread's last node at capture time.
type Promise struct {
	b      *Builder
	source NodeID
	thread ThreadID
	used   bool
}

// NewBuilder returns an empty Builder with a main thread ready for nodes.
func NewBuilder() *Builder {
	b := &Builder{}
	b.newThread(None)
	return b
}

// minSlab is the first slab chunk's length; later chunks match the threads
// already made, so a builder that is never Reserved allocates handles O(log n)
// times.
const minSlab = 16

// newThread registers a thread whose first node is reached from fork (the
// main thread's from None) and hands out its handle from the slab.
func (b *Builder) newThread(fork NodeID) *Thread {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Thread, 0, max(minSlab, len(b.threads)))
	}
	b.slab = append(b.slab, Thread{b: b, id: ThreadID(len(b.threads)), last: None, pendingFrom: fork, pendingKind: EdgeFuture})
	t := &b.slab[len(b.slab)-1]
	b.threads = append(b.threads, t)
	b.threadFirst = append(b.threadFirst, None)
	b.threadLast = append(b.threadLast, None)
	b.threadFork = append(b.threadFork, fork)
	return t
}

// Reserve presizes the builder for a graph of up to nodes nodes and threads
// threads (the main thread included): building one no larger allocates
// nothing more for nodes or threads. A smaller graph only wastes the space.
func (b *Builder) Reserve(nodes, threads int) {
	b.nodes = slices.Grow(b.nodes, max(0, nodes-len(b.nodes)))
	more := max(0, threads-len(b.threads))
	b.threads = slices.Grow(b.threads, more)
	b.threadFirst = slices.Grow(b.threadFirst, more)
	b.threadLast = slices.Grow(b.threadLast, more)
	b.threadFork = slices.Grow(b.threadFork, more)
	if more > cap(b.slab)-len(b.slab) {
		b.slab = make([]Thread, 0, more)
	}
}

// Main returns the main thread (thread 0).
func (b *Builder) Main() *Thread { return b.threads[0] }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// newNode appends a node to thread t and wires the incoming edge
// (continuation from t.last, or the pending fork/future edge).
func (b *Builder) newNode(t *Thread, block BlockID) NodeID {
	if b.err != nil {
		return None
	}
	if t.closed {
		b.fail("dag: append to closed thread %d", t.id)
		return None
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Thread: t.id, Block: block})
	if t.last == None {
		// First node of the thread.
		b.threadFirst[t.id] = id
		if t.pendingFrom != None {
			b.addEdge(t.pendingFrom, id, t.pendingKind)
			t.pendingFrom = None
		}
	} else {
		b.addEdge(t.last, id, EdgeCont)
	}
	t.last = id
	b.threadLast[t.id] = id
	return id
}

// addEdge wires from -> to with the given kind and bumps the in-degree.
func (b *Builder) addEdge(from, to NodeID, kind EdgeKind) {
	if b.err != nil {
		return
	}
	n := &b.nodes[from]
	if n.NOut >= 2 {
		b.fail("dag: node %d would have out-degree > 2", from)
		return
	}
	n.Out[n.NOut] = Edge{To: to, Kind: kind}
	n.NOut++
	b.nodes[to].NIn++
}

// Step appends one unit task with no memory access and returns its ID.
func (t *Thread) Step() NodeID { return t.b.newNode(t, NoBlock) }

// Steps appends n unit tasks (no memory access); it returns the last ID.
func (t *Thread) Steps(n int) NodeID {
	id := None
	for i := 0; i < n; i++ {
		id = t.Step()
	}
	return id
}

// Access appends one unit task that reads memory block blk.
func (t *Thread) Access(blk BlockID) NodeID { return t.b.newNode(t, blk) }

// ID returns the thread's identifier.
func (t *Thread) ID() ThreadID { return t.id }

// Last returns the thread's most recent node (None if empty).
func (t *Thread) Last() NodeID { return t.last }

// Fork appends a fork node to t and creates a new future thread.
//
// The fork's future edge (left child, by the paper's drawing convention)
// points to the first node subsequently added to the returned thread; its
// continuation edge (right child) points to the next node added to t. The
// fork node itself accesses no memory; use ForkAccess for a fork that does.
func (t *Thread) Fork() *Thread { return t.ForkAccess(NoBlock) }

// ForkAccess is Fork with a memory access on the fork node.
func (t *Thread) ForkAccess(blk BlockID) *Thread {
	b := t.b
	fork := b.newNode(t, blk)
	if fork == None {
		// Builder already failed; return a dead handle so callers can chain.
		return &Thread{b: b, id: NoThread, last: None, closed: true}
	}
	return b.newThread(fork)
}

// Promise captures the thread's current last node as a future parent for a
// later TouchPromise. This models a future thread that computes several
// futures (permitted by the local-touch discipline, Definition 3). The
// promise must be touched exactly once.
func (t *Thread) Promise() *Promise {
	if t.last == None {
		t.b.fail("dag: Promise on empty thread %d", t.id)
		return &Promise{b: t.b, source: None, thread: t.id, used: true}
	}
	return &Promise{b: t.b, source: t.last, thread: t.id}
}

// touchFrom appends a touch (or join) node to consumer whose future parent
// is source.
func (b *Builder) touchFrom(consumer *Thread, source NodeID, srcThread ThreadID, blk BlockID, join bool) NodeID {
	if b.err != nil {
		return None
	}
	if source == None {
		b.fail("dag: touch of empty future thread %d", srcThread)
		return None
	}
	kind := EdgeTouch
	if join {
		kind = EdgeJoin
	}
	local := consumer.last
	id := b.newNode(consumer, blk)
	if id == None {
		return None
	}
	b.addEdge(source, id, kind)
	b.touches = append(b.touches, TouchInfo{
		Node:         id,
		FutureParent: source,
		LocalParent:  local,
		FutureThread: srcThread,
		Fork:         b.threadFork[srcThread],
		Join:         join,
	})
	return id
}

// Touch appends a touch node to t that consumes future thread f, and closes
// f: its current last node becomes the future parent, and no more nodes may
// be added to f. This is the single-touch idiom (Definition 2).
func (t *Thread) Touch(f *Thread) NodeID { return t.TouchAccess(f, NoBlock) }

// TouchAccess is Touch with a memory access on the touch node.
func (t *Thread) TouchAccess(f *Thread, blk BlockID) NodeID {
	b := t.b
	if f.id == NoThread || b.err != nil {
		return None
	}
	if f.closed {
		b.fail("dag: double touch of thread %d", f.id)
		return None
	}
	if f == t {
		b.fail("dag: thread %d touching itself", t.id)
		return None
	}
	id := b.touchFrom(t, f.last, f.id, blk, false)
	f.closed = true
	return id
}

// Join is Touch with a join node target: scheduled identically but excluded
// from the touch count t (used by the Theorem 10 construction, Figure 7(a),
// whose y_i are "join nodes, not touches").
func (t *Thread) Join(f *Thread) NodeID { return t.JoinAccess(f, NoBlock) }

// JoinAccess is Join with a memory access on the join node.
func (t *Thread) JoinAccess(f *Thread, blk BlockID) NodeID {
	b := t.b
	if f.id == NoThread || b.err != nil {
		return None
	}
	if f.closed {
		b.fail("dag: double join of thread %d", f.id)
		return None
	}
	id := b.touchFrom(t, f.last, f.id, blk, true)
	f.closed = true
	return id
}

// TouchPromise appends a touch node consuming a previously captured Promise.
// The promise's thread stays open, so it can keep computing further futures.
func (t *Thread) TouchPromise(p *Promise, blk BlockID) NodeID {
	b := t.b
	if b.err != nil {
		return None
	}
	if p.used {
		b.fail("dag: promise from thread %d touched twice", p.thread)
		return None
	}
	p.used = true
	return b.touchFrom(t, p.source, p.thread, blk, false)
}

// Build finalizes the graph. Every non-main thread must have been closed by
// a Touch/Join (its last node needs the outgoing touch edge the model
// requires). The main thread's last node becomes the final node.
func (b *Builder) Build() (*Graph, error) { return b.build(false) }

// BuildSuperFinal finalizes a graph with a super final node (Section 6.2):
// an extra sink node is appended to the main thread, and every thread whose
// last node still lacks an outgoing edge gets a touch edge to it. Threads
// already closed by a regular Touch are left alone (adding their edges too
// would not change execution order — the paper notes the two styles are
// equivalent — but keeping them out preserves in-degree conventions for
// analysis). Threads never touched model side-effect futures (Definition 13
// allows the super final node to be a future thread's only touch).
func (b *Builder) BuildSuperFinal() (*Graph, error) { return b.build(true) }

func (b *Builder) build(superFinal bool) (*Graph, error) {
	if b.built {
		return nil, errors.New("dag: Build called twice")
	}
	if b.err != nil {
		return nil, b.err
	}
	main := b.threads[0]
	if main.last == None {
		return nil, ErrEmpty
	}
	if superFinal {
		// Append the super final node to the main thread, then point every
		// open thread's last node at it.
		local := main.last
		sf := b.newNode(main, NoBlock)
		for _, t := range b.threads[1:] {
			if t.closed || t.last == None {
				continue
			}
			b.addEdge(t.last, sf, EdgeTouch)
			b.touches = append(b.touches, TouchInfo{
				Node:         sf,
				FutureParent: t.last,
				LocalParent:  local,
				FutureThread: t.id,
				Fork:         b.threadFork[t.id],
			})
			t.closed = true
		}
	}
	for _, t := range b.threads[1:] {
		if t.id == NoThread {
			continue
		}
		if t.last == None {
			return nil, fmt.Errorf("dag: thread %d spawned but never ran", t.id)
		}
		if !t.closed {
			return nil, fmt.Errorf("dag: thread %d never touched or joined", t.id)
		}
	}
	for _, t := range b.threads {
		t.closed = true
	}
	b.built = true
	g := &Graph{
		Nodes:       b.nodes,
		Root:        0,
		Final:       main.last,
		ThreadFirst: b.threadFirst,
		ThreadLast:  b.threadLast,
		ThreadFork:  b.threadFork,
		Touches:     b.touches,
		SuperFinal:  superFinal,
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	g.span = g.computeSpan()
	g.numberBlocks()
	return g, nil
}

// MustBuild is Build that panics on error; intended for tests and generators
// whose inputs are known valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
