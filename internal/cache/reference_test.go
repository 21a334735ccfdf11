package cache

import (
	"container/heap"

	"futurelocality/internal/dag"
)

// The reference models FuzzCachePolicies holds the flat-table caches to:
// fully associative LRU and FIFO indexed by a Go map, and Belady's OPT on
// two maps and container/heap — the implementations this package shipped
// before the block table, kept for what they are good at, being obviously
// right.

type refLRU struct {
	lines    int
	entries  []lruEntry
	index    map[dag.BlockID]int32
	head     int32
	tail     int32
	misses   int64
	accesses int64
}

func newRefLRU(c int) *refLRU {
	return &refLRU{lines: c, index: map[dag.BlockID]int32{}, head: -1, tail: -1}
}

func (l *refLRU) Name() string    { return "ref-lru" }
func (l *refLRU) Lines() int      { return l.lines }
func (l *refLRU) Misses() int64   { return l.misses }
func (l *refLRU) Accesses() int64 { return l.accesses }

func (l *refLRU) Reset() {
	l.entries = l.entries[:0]
	clear(l.index)
	l.head, l.tail = -1, -1
	l.misses, l.accesses = 0, 0
}

func (l *refLRU) unlink(i int32) {
	e := &l.entries[i]
	if e.prev >= 0 {
		l.entries[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		l.entries[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

func (l *refLRU) pushFront(i int32) {
	e := &l.entries[i]
	e.prev = -1
	e.next = l.head
	if l.head >= 0 {
		l.entries[l.head].prev = i
	}
	l.head = i
	if l.tail < 0 {
		l.tail = i
	}
}

func (l *refLRU) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	l.accesses++
	if i, ok := l.index[b]; ok {
		if l.head != i {
			l.unlink(i)
			l.pushFront(i)
		}
		return false
	}
	l.misses++
	var i int32
	if len(l.entries) < l.lines {
		l.entries = append(l.entries, lruEntry{block: b})
		i = int32(len(l.entries) - 1)
	} else {
		i = l.tail
		l.unlink(i)
		delete(l.index, l.entries[i].block)
		l.entries[i].block = b
	}
	l.index[b] = i
	l.pushFront(i)
	return true
}

type refFIFO struct {
	ring     []dag.BlockID
	resident map[dag.BlockID]struct{}
	next     int
	filled   int
	misses   int64
	accesses int64
}

func newRefFIFO(c int) *refFIFO {
	return &refFIFO{ring: make([]dag.BlockID, c), resident: map[dag.BlockID]struct{}{}}
}

func (f *refFIFO) Name() string    { return "ref-fifo" }
func (f *refFIFO) Lines() int      { return len(f.ring) }
func (f *refFIFO) Misses() int64   { return f.misses }
func (f *refFIFO) Accesses() int64 { return f.accesses }

func (f *refFIFO) Reset() {
	clear(f.resident)
	f.next, f.filled = 0, 0
	f.misses, f.accesses = 0, 0
}

func (f *refFIFO) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	f.accesses++
	if _, ok := f.resident[b]; ok {
		return false
	}
	f.misses++
	if f.filled == len(f.ring) {
		delete(f.resident, f.ring[f.next])
	} else {
		f.filled++
	}
	f.ring[f.next] = b
	f.resident[b] = struct{}{}
	f.next = (f.next + 1) % len(f.ring)
	return true
}

// refSetAssoc is set-associative LRU with each set a slice searched and
// reordered in the most literal way: remove the block if present, put it in
// front, drop the tail past ways.
type refSetAssoc struct {
	sets     [][]dag.BlockID
	ways     int
	misses   int64
	accesses int64
}

func newRefSetAssoc(lines, ways int) *refSetAssoc {
	ways = min(ways, lines)
	return &refSetAssoc{sets: make([][]dag.BlockID, max(lines/ways, 1)), ways: ways}
}

func (s *refSetAssoc) Name() string    { return "ref-set-assoc" }
func (s *refSetAssoc) Lines() int      { return len(s.sets) * s.ways }
func (s *refSetAssoc) Misses() int64   { return s.misses }
func (s *refSetAssoc) Accesses() int64 { return s.accesses }

func (s *refSetAssoc) Reset() {
	clear(s.sets)
	s.misses, s.accesses = 0, 0
}

func (s *refSetAssoc) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	s.accesses++
	k := int(uint32(b)) % len(s.sets)
	next, miss := []dag.BlockID{b}, true
	for _, blk := range s.sets[k] {
		if blk == b {
			miss = false
		} else {
			next = append(next, blk)
		}
	}
	if miss {
		s.misses++
	}
	s.sets[k] = next[:min(len(next), s.ways)]
	return miss
}

// newReference builds the reference model New(kind, c) is held to.
func newReference(kind Kind, c int) Cache {
	switch kind {
	case LRU:
		return newRefLRU(c)
	case FIFO:
		return newRefFIFO(c)
	case SetAssocLRU:
		return newRefSetAssoc(c, 4)
	default:
		return newRefSetAssoc(c, 1)
	}
}

// optimalMissesReference is Belady's OPT with a map from block to last
// position, a map of resident blocks, and a lazily deleted container/heap.
func optimalMissesReference(trace []dag.BlockID, c int) int64 {
	n := len(trace)
	next := make([]int, n)
	last := map[dag.BlockID]int{}
	for i := n - 1; i >= 0; i-- {
		if trace[i] == dag.NoBlock {
			next[i] = -1
			continue
		}
		if j, ok := last[trace[i]]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[trace[i]] = i
	}
	h := &refOptHeap{}
	resident := map[dag.BlockID]int{} // block -> its current next-use key
	var misses int64
	for i, b := range trace {
		if b == dag.NoBlock {
			continue
		}
		if key, ok := resident[b]; ok && key == i {
			resident[b] = next[i]
			heap.Push(h, refOptEntry{block: b, nextUse: next[i]})
			continue
		}
		misses++
		if len(resident) == c {
			for {
				top := heap.Pop(h).(refOptEntry)
				if key, ok := resident[top.block]; ok && key == top.nextUse {
					delete(resident, top.block)
					break
				}
			}
		}
		resident[b] = next[i]
		heap.Push(h, refOptEntry{block: b, nextUse: next[i]})
	}
	return misses
}

type refOptEntry struct {
	block   dag.BlockID
	nextUse int
}

type refOptHeap []refOptEntry

func (h refOptHeap) Len() int           { return len(h) }
func (h refOptHeap) Less(i, j int) bool { return h[i].nextUse > h[j].nextUse }
func (h refOptHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refOptHeap) Push(x any)        { *h = append(*h, x.(refOptEntry)) }
func (h *refOptHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
