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
//     "each task accesses at most one block" reading.
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
type Footprint struct {
	// Synthetic reports the derivation mode (false = declared blocks).
	Synthetic bool
	// Window is the per-thread working-set window W (0 in declared mode).
	Window int
	// Blocks is the number of distinct block identities in play.
	Blocks int
	// blocks[v] is node v's access list, in access order; backed by one
	// flat allocation (see offsets).
	flat    []dag.BlockID
	offsets []int32
}

// Of returns node v's block access list, in access order. The slice aliases
// the footprint's backing store and must not be mutated.
func (f *Footprint) Of(v dag.NodeID) []dag.BlockID {
	return f.flat[f.offsets[v]:f.offsets[v+1]]
}

// Flatten concatenates the footprints of the given execution order into one
// block access trace — the input OptimalMisses wants for the ideal-cache
// (Belady OPT) baseline.
func (f *Footprint) Flatten(order []dag.NodeID) []dag.BlockID {
	out := make([]dag.BlockID, 0, len(f.flat))
	for _, v := range order {
		out = append(out, f.Of(v)...)
	}
	return out
}

// DeriveFootprint builds the footprint of g with working-set window w
// (w ≥ 1; ignored for graphs that declare their own blocks). It panics on a
// non-positive window, mirroring New's contract for lines.
func DeriveFootprint(g *dag.Graph, w int) *Footprint {
	if w < 1 {
		panic(fmt.Sprintf("cache: footprint window %d", w))
	}
	n := g.Len()
	declared := false
	for id := range g.Nodes {
		if g.Nodes[id].Block != dag.NoBlock {
			declared = true
			break
		}
	}
	if declared {
		f := &Footprint{offsets: make([]int32, n+1)}
		f.flat = make([]dag.BlockID, 0, n)
		distinct := newBlockTable(64)
		for id := range g.Nodes {
			f.offsets[id] = int32(len(f.flat))
			if b := g.Nodes[id].Block; b != dag.NoBlock {
				f.flat = append(f.flat, b)
				if _, fresh := distinct.intern(b, int32(f.Blocks)); fresh {
					f.Blocks++
				}
			}
		}
		f.offsets[n] = int32(len(f.flat))
		return f
	}

	// Synthetic mode. Block identity layout: frames first (one per thread,
	// IDs 0..T-1), then each thread's window slots (T + tid·w + slot).
	threads := g.NumThreads()
	f := &Footprint{
		Synthetic: true,
		Window:    w,
		Blocks:    threads + threads*w,
		offsets:   make([]int32, n+1),
	}
	frame := func(tid dag.ThreadID) dag.BlockID { return dag.BlockID(tid) }

	// pos[v] = v's index along its thread's continuation chain.
	pos := make([]int32, n)
	for tid := 0; tid < threads; tid++ {
		k := int32(0)
		for v := g.ThreadFirst[tid]; v != dag.None; v = g.Nodes[v].ContChild() {
			pos[v] = k
			k++
		}
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
	for id := range g.Nodes {
		tid := g.Nodes[id].Thread
		at := f.offsets[id]
		f.flat[at] = frame(tid)
		f.flat[at+1] = dag.BlockID(int32(threads) + int32(tid)*int32(w) + pos[id]%int32(w))
		pos[id] = at + 2 // from here on: where the node's next touched frame goes
	}
	for _, ti := range g.Touches {
		f.flat[pos[ti.Node]] = frame(ti.FutureThread)
		pos[ti.Node]++
	}
	return f
}
