package cache

import (
	"math"

	"futurelocality/internal/dag"
)

// OptimalMisses computes the miss count of Belady's offline-optimal (OPT /
// MIN) replacement policy on a block access trace with a fully associative
// cache of c lines: on a miss with a full cache, evict the resident block
// whose next use is farthest in the future (never used again beats
// everything). O(len(trace)·log c) time; 8 bytes per access plus O(c + distinct
// blocks) space, and a constant number of allocations.
//
// OPT is unrealizable online, but it lower-bounds every replacement policy,
// which gives it two jobs here:
//
//   - the E12 ablation yardstick: how much of the worst-case thrash on the
//     paper's adversarial traces is inherent to the access pattern versus
//     an artifact of LRU;
//   - the ideal-cache baseline of the cache-cost pipeline: core.NewCacheBaseline
//     runs OPT over the sequential execution's flattened footprint
//     (Footprint.Flatten) and reports it beside the LRU baseline, so a
//     report reader can see how much of the sequential miss bill any
//     replacement policy must pay. The parallel replays themselves stay on
//     the simple online policies — the theorem's bounds are stated for
//     those (per Acar, Blelloch & Blumofe), and OPT over a parallel
//     interleaving would need clairvoyance per worker.
func OptimalMisses(trace []dag.BlockID, c int) int64 {
	if c < 1 {
		panic("cache: OptimalMisses with c < 1")
	}
	if len(trace) > math.MaxInt32 {
		panic("cache: OptimalMisses trace longer than 2³¹ accesses")
	}
	n := int32(len(trace))

	// ids[i] is trace[i]'s block renumbered densely by first appearance
	// (-1 for NoBlock), so that everything per block is a slice.
	ids := make([]int32, n)
	dense := newBlockTable(c)
	var distinct int32
	for i, b := range trace {
		if b == dag.NoBlock {
			ids[i] = -1
			continue
		}
		id, fresh := dense.intern(b, distinct)
		if fresh {
			distinct++
		}
		ids[i] = id
	}

	// next[i] is the position of the next access to trace[i]'s block, or n
	// when there is none.
	next := make([]int32, n)
	h := optHeap{key: make([]int32, distinct), pos: make([]int32, distinct)}
	for id := range h.key {
		h.key[id] = n // the backward pass's "last seen at"
		h.pos[id] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if id := ids[i]; id >= 0 {
			next[i] = h.key[id]
			h.key[id] = i
		}
	}

	var misses int64
	for i, id := range ids {
		if id < 0 {
			continue
		}
		if p := h.pos[id]; p >= 0 {
			// Hit: the block's next use moves further away.
			h.key[id] = next[i]
			h.up(p)
			continue
		}
		misses++
		h.key[id] = next[i]
		if len(h.ids) < c {
			h.ids = append(h.ids, id)
			h.pos[id] = int32(len(h.ids) - 1)
			h.up(h.pos[id])
			continue
		}
		// Evict the resident block whose next use is farthest away.
		h.pos[h.ids[0]] = -1
		h.ids[0], h.pos[id] = id, 0
		h.down(0)
	}
	return misses
}

// optHeap is a max-heap of the resident blocks' dense ids ordered by next
// use. Each id's heap position is tracked, so a hit raises its key in place
// and the heap never holds more than c entries.
type optHeap struct {
	ids []int32 // heap order
	key []int32 // key[id]: next use of block id
	pos []int32 // pos[id]: index in ids, -1 when not resident
}

func (h *optHeap) swap(i, j int32) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]], h.pos[h.ids[j]] = i, j
}

// up restores heap order after the key at position i grew.
func (h *optHeap) up(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.key[h.ids[parent]] >= h.key[h.ids[i]] {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down restores heap order after the entry at position i was replaced.
func (h *optHeap) down(i int32) {
	n := int32(len(h.ids))
	for {
		big := i
		for child := 2*i + 1; child <= 2*i+2 && child < n; child++ {
			if h.key[h.ids[child]] > h.key[h.ids[big]] {
				big = child
			}
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}
