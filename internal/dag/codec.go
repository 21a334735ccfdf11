package dag

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary serialization for computation DAGs: a compact varint format so
// generated graphs (random seeds, worst-case constructions) can be saved,
// shipped and replayed byte-identically. The format is versioned and
// self-describing enough for round-trips; it is not a public interchange
// format.
//
// Layout (all varints except the magic):
//
//	magic "FLDG" | version | superFinal | numNodes | numThreads |
//	per node:   thread | block+1 | nOut | (kind, to)*
//
// The nodes and their edges are the whole graph. The thread and touch tables
// a Graph carries are functions of them, so the format does not store a
// second copy a reader would have to trust: ReadBinary derives both
// (deriveTables) and rejects node lists whose threads are not continuation
// chains.
const (
	codecMagic   = "FLDG"
	codecVersion = 2
)

// ErrBadFormat reports a malformed or incompatible serialized graph.
var ErrBadFormat = errors.New("dag: bad serialized graph")

// WriteBinary serializes g.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(codecMagic) // bufio keeps the first error for Flush
	var buf [binary.MaxVarintLen64]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			bw.Write(buf[:binary.PutVarint(buf[:], v)])
		}
	}
	sf := int64(0)
	if g.SuperFinal {
		sf = 1
	}
	put(codecVersion, sf, int64(len(g.Nodes)), int64(g.NumThreads()))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		put(int64(n.Thread), int64(n.Block)+1, int64(n.NOut))
		for _, e := range n.OutEdges() {
			put(int64(e.Kind), int64(e.To))
		}
	}
	return bw.Flush()
}

// minNodeBytes is the shortest encoding of one node: thread, block, nOut.
const minNodeBytes = 3

// ReadBinary deserializes a graph written by WriteBinary and validates it.
// It reads r to its end, and allocates in proportion to the bytes it found
// there, whatever node count the header claims.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, data[:min(len(data), len(codecMagic))])
	}
	data = data[len(codecMagic):]
	truncated := false
	get := func() int64 {
		v, n := binary.Varint(data)
		if n <= 0 {
			truncated = true
			return 0
		}
		data = data[n:]
		return v
	}
	version, sf, numNodes, numThreads := get(), get(), get(), get()
	switch {
	case truncated:
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	case version != codecVersion:
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, version)
	case numNodes < 1 || numNodes > int64(len(data)/minNodeBytes) || numThreads < 1 || numThreads > numNodes:
		return nil, fmt.Errorf("%w: %d nodes / %d threads in %d bytes", ErrBadFormat, numNodes, numThreads, len(data))
	}
	g := &Graph{Nodes: make([]Node, numNodes), SuperFinal: sf == 1, Final: None}
	for i := range g.Nodes {
		thread, blockP1, nOut := get(), get(), get()
		if truncated || nOut < 0 || nOut > 2 || thread < 0 || thread >= numThreads ||
			blockP1 < 0 || blockP1 > math.MaxInt32 {
			return nil, fmt.Errorf("%w: node %d header", ErrBadFormat, i)
		}
		n := &g.Nodes[i]
		n.Thread = ThreadID(thread)
		n.Block = BlockID(blockP1 - 1)
		n.NOut = uint8(nOut)
		for e := 0; e < int(nOut); e++ {
			kind, to := get(), get()
			if truncated || to <= int64(i) || to >= numNodes || kind < int64(EdgeCont) || kind > int64(EdgeJoin) {
				return nil, fmt.Errorf("%w: node %d edge %d", ErrBadFormat, i, e)
			}
			n.Out[e] = Edge{To: NodeID(to), Kind: EdgeKind(kind)}
			g.Nodes[to].NIn++
		}
		if nOut == 0 {
			g.Final = NodeID(i) // Validate insists there is exactly one sink
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last node", ErrBadFormat, len(data))
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if err := g.deriveTables(int(numThreads)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	g.span = g.computeSpan()
	return g, nil
}

// deriveTables fills ThreadFirst, ThreadLast, ThreadFork and Touches from
// the nodes' Thread fields and edges — what a Builder records as it goes,
// recovered for a graph that arrived as a node list. g must have passed
// Validate. It fails unless every thread is what Section 2 says a thread is:
// a non-empty chain of continuation edges, the main thread starting at the
// root and every other at the future edge of exactly one fork.
func (g *Graph) deriveTables(numThreads int) error {
	none := func(n int) []NodeID {
		s := make([]NodeID, n)
		for i := range s {
			s[i] = None
		}
		return s
	}
	g.ThreadFirst, g.ThreadLast, g.ThreadFork = none(numThreads), none(numThreads), none(numThreads)
	for id := range g.Nodes {
		t := g.Nodes[id].Thread
		if g.ThreadFirst[t] == None {
			g.ThreadFirst[t] = NodeID(id)
		}
		g.ThreadLast[t] = NodeID(id)
	}
	if slices.Contains(g.ThreadFirst, None) {
		return errors.New("a thread with no nodes")
	}
	contPred := none(len(g.Nodes))
	for id := range g.Nodes {
		n := &g.Nodes[id]
		conts := 0
		for _, e := range n.OutEdges() {
			to := g.Nodes[e.To].Thread
			switch e.Kind {
			case EdgeCont:
				if conts++; to != n.Thread || conts > 1 || contPred[e.To] != None {
					return fmt.Errorf("continuation edge %d->%d does not extend one thread", id, e.To)
				}
				contPred[e.To] = NodeID(id)
			case EdgeFuture:
				if to == n.Thread || e.To != g.ThreadFirst[to] || g.ThreadFork[to] != None {
					return fmt.Errorf("future edge %d->%d does not start a thread", id, e.To)
				}
				g.ThreadFork[to] = NodeID(id)
			default:
				g.Touches = append(g.Touches, TouchInfo{Node: e.To, FutureParent: NodeID(id),
					FutureThread: n.Thread, Join: e.Kind == EdgeJoin})
			}
		}
	}
	for id := range g.Nodes {
		t := g.Nodes[id].Thread
		first := NodeID(id) == g.ThreadFirst[t]
		started := NodeID(id) == g.Root
		if t != 0 {
			started = g.ThreadFork[t] != None
		}
		if first != (contPred[id] == None) || first && !started {
			return fmt.Errorf("thread %d is not one chain from its fork (at node %d)", t, id)
		}
	}
	// Builder order: by touch node, a super final node's touches by thread.
	slices.SortStableFunc(g.Touches, func(a, b TouchInfo) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.FutureThread, b.FutureThread))
	})
	for i := range g.Touches {
		ti := &g.Touches[i]
		ti.LocalParent, ti.Fork = contPred[ti.Node], g.ThreadFork[ti.FutureThread]
	}
	return nil
}
