package cache

import (
	"fmt"

	"futurelocality/internal/dag"
)

// Footprint maps every node of a computation DAG to the memory blocks its
// task touches when executed — the access trace the cache-cost replay
// charges against a schedule.
//
// Two sources:
//
//   - Declared: when the graph itself assigns blocks (Builder.Access — the
//     model-layer graphs and the adversarial families), the footprint is
//     exactly those declared blocks, one per node, the paper's own
//     "each task accesses at most one block" reading. Such a footprint is a
//     view of the graph, which numbered its blocks when it was made: it
//     stores nothing per node.
//
//   - Synthetic: reconstructed traces carry no block identities (the
//     profiler records scheduling events, not loads), so the footprint is
//     derived from the DAG's structure. Each thread owns a frame block (the
//     task's stack/locals — alive for the whole thread) plus a rolling
//     window of W working-set blocks threaded along its continuation edges:
//     node k of a thread accesses the frame and window slot k mod W, so
//     consecutive nodes of a thread re-touch blocks their predecessors
//     installed — the inheritance along continuation edges that makes an
//     in-order thread run nearly miss-free after its first W+1 accesses. A
//     touch (or join) node additionally accesses the touched thread's frame
//     block, the consumed future value crossing the touch edge. A deviation
//     that moves a continuation to another worker's cold cache therefore
//     re-faults up to W+1 ≤ C blocks — precisely the per-deviation
//     cold-restart charge of the Acar/Blelloch/Blumofe argument the
//     theorem's C·deviations bound rests on.
//
// Block identities in a footprint are dense: the blocks in use are numbered
// 0..n-1 and Flatten and the replay deal in those numbers, so a cache can
// index a slice by them instead of hashing. LRU, FIFO and OPT are blind to a
// renaming; the policies that place a block by its identity (set-assoc-lru,
// direct-mapped) are handed the original one through the raw table.
type Footprint struct {
	// Synthetic reports the derivation mode (false = declared blocks).
	Synthetic bool
	// Window is the per-thread working-set window W (0 in declared mode).
	Window int
	// Blocks is the number of distinct block identities in play: the
	// declared ones, or the synthetic layout's threads·(1 + W), whether or
	// not a short thread reaches all its window slots.
	Blocks int
	// nodes is the graph's node table in declared mode: node v accesses
	// nodes[v].Block, already a dense id.
	nodes []dag.Node
	// flat[offsets[v]:offsets[v+1]] is node v's access list in synthetic
	// mode, in access order, as dense ids.
	flat    []dag.BlockID
	offsets []int32
	// raw[id] is the identity dense id stands for: the graph's declared
	// block (its RawBlocks), or the synthetic layout's (frames first, one
	// per thread, IDs 0..T-1, then each thread's window slots,
	// T + tid·w + slot). Its length is the number of blocks in use.
	raw []dag.BlockID
}

// of returns node v's block access list, in access order, as dense ids. A
// declared node's one access is returned in *one; otherwise the slice
// aliases the footprint. It must not be mutated.
func (f *Footprint) of(v dag.NodeID, one *[1]dag.BlockID) []dag.BlockID {
	if f.Synthetic {
		return f.flat[f.offsets[v]:f.offsets[v+1]]
	}
	if one[0] = f.nodes[v].Block; one[0] == dag.NoBlock {
		return nil
	}
	return one[:]
}

// Flatten concatenates the footprints of the given execution order into one
// block access trace — the input OptimalMisses wants for the ideal-cache
// (Belady OPT) baseline.
func (f *Footprint) Flatten(order []dag.NodeID) []dag.BlockID {
	out := make([]dag.BlockID, 0, max(len(f.flat), len(order)))
	var one [1]dag.BlockID
	for _, v := range order {
		out = append(out, f.of(v, &one)...)
	}
	return out
}

// footprintKey keys a footprint in its graph's memo by its window: 1 for a
// graph that declares its blocks, whose footprint ignores the window.
type footprintKey struct{ window int }

// FootprintOf returns DeriveFootprint(g, w), derived once per graph and
// window and kept with the graph (dag.Memo): every analysis of g, and every
// simulator run that bills g's declared blocks, replays through that one
// footprint.
func FootprintOf(g *dag.Graph, w int) *Footprint {
	if len(g.RawBlocks) > 0 {
		w = 1
	}
	return dag.Memo(g, footprintKey{w}, func(g *dag.Graph, k footprintKey) *Footprint {
		return DeriveFootprint(g, k.window)
	})
}

// DeriveFootprint builds the footprint of g with working-set window w
// (w ≥ 1; ignored for graphs that declare their own blocks). It panics on a
// non-positive window.
func DeriveFootprint(g *dag.Graph, w int) *Footprint {
	if w < 1 {
		panic(fmt.Sprintf("cache: footprint window %d", w))
	}
	if len(g.RawBlocks) > 0 {
		return &Footprint{Blocks: len(g.RawBlocks), nodes: g.Nodes, raw: g.RawBlocks}
	}
	n := g.Len()

	// Synthetic mode. Dense ids by construction, thread after thread: the
	// thread's frame, then the window slots it reaches, min(length, w) of
	// them.
	threads := g.NumThreads()
	f := &Footprint{
		Synthetic: true,
		Window:    w,
		Blocks:    threads + threads*w,
		offsets:   make([]int32, n+1),
	}
	// Each node accesses its own frame and window slot, and a touch/join node
	// also the touched threads' frames (a super final node can be the target
	// of many touch edges). Two passes over the flat store: count each
	// node's accesses into offsets, then fill.
	for id := range g.Nodes {
		f.offsets[id+1] = 2
	}
	for _, ti := range g.Touches {
		f.offsets[ti.Node+1]++
	}
	for id := range g.Nodes {
		f.offsets[id+1] += f.offsets[id]
	}
	f.flat = make([]dag.BlockID, f.offsets[n])
	f.raw = make([]dag.BlockID, 0, threads+min(n, threads*w))
	for tid := 0; tid < threads; tid++ {
		frame := dag.BlockID(len(f.raw))
		f.raw = append(f.raw, dag.BlockID(tid))
		k := 0 // the node's index along the thread's continuation chain
		for v := g.ThreadFirst[tid]; v != dag.None; v = g.Nodes[v].ContChild() {
			if k < w {
				f.raw = append(f.raw, dag.BlockID(threads+tid*w+k))
			}
			at := f.offsets[v]
			f.flat[at] = frame
			f.flat[at+1] = frame + 1 + dag.BlockID(k%w)
			k++
		}
	}
	// g.Touches is in creation order, so the touches of one node are
	// adjacent; a thread's frame is what its first node accesses first.
	at, node := int32(0), dag.None
	for _, ti := range g.Touches {
		if ti.Node != node {
			node, at = ti.Node, f.offsets[ti.Node]+2
		}
		f.flat[at] = f.flat[f.offsets[g.ThreadFirst[ti.FutureThread]]]
		at++
	}
	return f
}
