// Package cache implements the cache model of Section 3: each processor has
// a private, fully associative cache of C lines, each holding one memory
// block, with a simple replacement policy. The paper analyzes LRU and notes
// that its upper bounds hold for all "simple" policies (per Acar, Blelloch &
// Blumofe), so FIFO, set-associative LRU and direct-mapped variants are
// provided for the robustness experiments.
//
// Caches are driven by dense block ids (a footprint's, or a dag.Graph's own);
// only hits and misses are modeled, never latency.
package cache

import (
	"fmt"

	"futurelocality/internal/dag"
)

// Kind selects a cache policy implementation.
type Kind uint8

const (
	// LRU is the fully associative least-recently-used cache the paper
	// analyzes.
	LRU Kind = iota
	// FIFO is fully associative with first-in-first-out replacement.
	FIFO
	// SetAssocLRU is a 4-way set-associative LRU cache (C-way below 4
	// lines).
	SetAssocLRU
	// DirectMapped is a 1-way set-associative cache.
	DirectMapped
)

// String returns the policy name.
func (k Kind) String() string {
	switch k {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case SetAssocLRU:
		return "set-assoc-lru"
	case DirectMapped:
		return "direct-mapped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds lists every defined cache policy — the iteration set for the
// robustness sweeps (E10) and the cache-cost replay's zero-deviation
// property test ("zero extra misses under every simple policy").
var Kinds = []Kind{LRU, FIFO, SetAssocLRU, DirectMapped}

// ParseKind parses a policy name as printed by Kind.String ("lru", "fifo",
// "set-assoc-lru", "direct-mapped"; "set-assoc" is accepted as shorthand).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "set-assoc-lru", "set-assoc":
		return SetAssocLRU, nil
	case "direct-mapped":
		return DirectMapped, nil
	default:
		return 0, fmt.Errorf("cache: unknown policy %q (want lru, fifo, set-assoc-lru, or direct-mapped)", s)
	}
}

// directTable is the residency index of a fully associative cache: entry b
// is one more than the line holding dense block b, 0 while b is not
// resident. An empty cache's table is all zeros over its whole capacity —
// Reset deletes the resident blocks one by one, O(C) however large the
// universe — which is what lets fit hand the same storage to the next
// footprint.
type directTable []int32

func (t directTable) get(b dag.BlockID) (int32, bool) { v := t[b]; return v - 1, v != 0 }
func (t directTable) put(b dag.BlockID, line int32)   { t[b] = line + 1 }
func (t directTable) del(b dag.BlockID)               { t[b] = 0 }

// fit returns an empty table over n blocks, t's own storage when that is
// large enough. t must be empty.
func (t directTable) fit(n int) directTable {
	if cap(t) < n {
		return make(directTable, n)
	}
	return t[:n]
}

// ---------------------------------------------------------------------------
// Fully associative LRU.
//
// The lines form one circular doubly linked list in recency order, threaded
// through a dense slice of entries: head is the most recently used line and
// its predecessor on the ring the least. The residency index maps a block to
// its line. O(1) per access, and a miss in a full cache — the common case of
// a replay — relinks nothing: the least recently used line takes the new
// block where it is and head steps back onto it.

type lruEntry struct {
	block      dag.BlockID
	prev, next int32
}

type lru struct {
	entries  []lruEntry
	index    directTable
	head     int32 // most recently used; 0 while entries is empty
	misses   int64
	accesses int64
	// stamp[i] is the run that last accessed line i, for the converged
	// replay to count a run's distinct blocks by; nil until it first runs.
	stamp []int32
}

func newLRU(c int) lru { return lru{entries: make([]lruEntry, 0, c)} }

func (l *lru) Misses() int64   { return l.misses }
func (l *lru) Accesses() int64 { return l.accesses }

func (l *lru) Reset() {
	l.forget()
	l.misses, l.accesses = 0, 0
}

// forget empties the cache, block by block, and keeps its counters.
func (l *lru) forget() {
	for i := range l.entries {
		l.index.del(l.entries[i].block)
	}
	l.entries = l.entries[:0]
	l.head = 0
}

// pushFront links line i, which is not on the ring, in before head and makes
// it the head.
func (l *lru) pushFront(i int32) {
	es := l.entries
	tail := es[l.head].prev
	es[i].prev, es[i].next = tail, l.head
	es[tail].next, es[l.head].prev = i, i
	l.head = i
}

// Access touches block b, updating the recency order, and reports whether it
// missed. Accessing dag.NoBlock is a no-op and never misses.
func (l *lru) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	l.accesses++
	es := l.entries
	if i, ok := l.index.get(b); ok {
		if i != l.head {
			e := es[i]
			es[e.prev].next, es[e.next].prev = e.next, e.prev
			l.pushFront(i)
		}
		return false
	}
	l.misses++
	if len(es) == cap(es) {
		// Evict. The line before head is the least recently used and sits
		// where the most recently used belongs: it takes b as it is.
		i := es[l.head].prev
		l.index.del(es[i].block)
		es[i].block = b
		l.index.put(b, i)
		l.head = i
		return true
	}
	// Cold line available: a ring of one, joined to the rest.
	i := int32(len(es))
	l.entries = append(es, lruEntry{block: b, prev: i, next: i})
	l.index.put(b, i)
	l.pushFront(i)
	return true
}

// ---------------------------------------------------------------------------
// Fully associative FIFO.

type fifo struct {
	ring     []dag.BlockID
	index    directTable // block → its ring slot
	next     int
	filled   int
	misses   int64
	accesses int64
}

func newFIFO(c int) fifo { return fifo{ring: make([]dag.BlockID, c)} }

func (f *fifo) Misses() int64   { return f.misses }
func (f *fifo) Accesses() int64 { return f.accesses }

func (f *fifo) Reset() {
	for _, b := range f.ring[:f.filled] {
		f.index.del(b)
	}
	f.next, f.filled = 0, 0
	f.misses, f.accesses = 0, 0
}

// Access is lru.Access under first-in-first-out replacement: a hit changes
// nothing.
func (f *fifo) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	f.accesses++
	if _, ok := f.index.get(b); ok {
		return false
	}
	f.misses++
	if f.filled == len(f.ring) {
		f.index.del(f.ring[f.next])
	} else {
		f.filled++
	}
	f.ring[f.next] = b
	f.index.put(b, int32(f.next))
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	return true
}

// ---------------------------------------------------------------------------
// Set-associative LRU (DirectMapped = 1 way). Blocks map to sets by modulo,
// so these caches are handed the identities blocks were declared with.

type setAssoc struct {
	sets     [][]dag.BlockID // each set ordered most- to least-recently used
	ways     int
	misses   int64
	accesses int64
}

// newSetAssoc builds a set-associative LRU cache with the given total line
// count (≥ 1) and associativity (≥ 1). lines is rounded down to a multiple
// of ways, and ways is cut to lines.
func newSetAssoc(lines, ways int) setAssoc {
	ways = min(ways, lines)
	s := setAssoc{sets: make([][]dag.BlockID, lines/ways), ways: ways}
	for i := range s.sets {
		s.sets[i] = make([]dag.BlockID, 0, ways)
	}
	return s
}

func (s *setAssoc) Misses() int64   { return s.misses }
func (s *setAssoc) Accesses() int64 { return s.accesses }

func (s *setAssoc) Reset() {
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
	s.misses, s.accesses = 0, 0
}

// Access is lru.Access within the set b maps to.
func (s *setAssoc) Access(b dag.BlockID) bool {
	if b == dag.NoBlock {
		return false
	}
	s.accesses++
	set := s.sets[int(uint32(b))%len(s.sets)]
	for i, blk := range set {
		if blk == b {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = b
			return false
		}
	}
	s.misses++
	if len(set) < s.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = b
	s.sets[int(uint32(b))%len(s.sets)] = set
	return true
}
