// Package cache implements the cache model of Section 3: each processor has
// a private, fully associative cache of C lines, each holding one memory
// block, with a simple replacement policy. The paper analyzes LRU and notes
// that its upper bounds hold for all "simple" policies (per Acar, Blelloch &
// Blumofe), so FIFO, set-associative LRU and direct-mapped variants are
// provided for the robustness experiments.
//
// Caches are driven by abstract block identities (dag.BlockID); only hits
// and misses are modeled, never latency.
package cache

import (
	"fmt"

	"futurelocality/internal/dag"
)

// Cache is a single processor's cache simulator.
//
// Access returns true when the access misses (the block was not resident).
// Accessing dag.NoBlock is a no-op and never misses.
type Cache interface {
	// Access touches the given block, updating replacement state, and
	// reports whether it missed.
	Access(dag.BlockID) bool
	// Misses returns the number of misses since construction or Reset.
	Misses() int64
	// Accesses returns the number of block accesses (NoBlock excluded).
	Accesses() int64
	// Reset empties the cache and zeroes counters.
	Reset()
	// Lines returns the capacity C in lines.
	Lines() int
	// Name identifies the policy, e.g. "lru".
	Name() string
}

// Kind selects a cache policy implementation.
type Kind uint8

const (
	// LRU is the fully associative least-recently-used cache the paper
	// analyzes.
	LRU Kind = iota
	// FIFO is fully associative with first-in-first-out replacement.
	FIFO
	// SetAssocLRU is a set-associative LRU cache; see NewSetAssoc.
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

// New constructs a cache of the given kind with c lines. Set-associative
// kinds default to 4-way (DirectMapped to 1-way); use NewSetAssoc for other
// geometries. It panics if c < 1.
func New(kind Kind, c int) Cache {
	if c < 1 {
		panic(fmt.Sprintf("cache: %d lines", c))
	}
	switch kind {
	case LRU:
		l := newLRU(c, newBlockTable(c))
		return &l
	case FIFO:
		f := newFIFO(c, newBlockTable(c))
		return &f
	case SetAssocLRU:
		ways := 4
		if c < 4 {
			ways = c
		}
		return NewSetAssoc(c, ways)
	case DirectMapped:
		return NewSetAssoc(c, 1)
	default:
		panic("cache: unknown kind " + kind.String())
	}
}

// ---------------------------------------------------------------------------
// Residency indexes: which line of a fully associative cache holds a block.
//
// The list and ring code below is written once, over either of two indexes.
// Which one serves is a matter of what the cache's owner knows, not of policy:
// a cache built by New is handed arbitrary block identities and hashes them
// (blockTable); a Set replays a Footprint, whose blocks are numbered 0..n-1,
// and indexes a slice by them (directTable).

type residency interface {
	// get returns the line holding b.
	get(b dag.BlockID) (line int32, ok bool)
	// put records that line holds b, which must be absent.
	put(b dag.BlockID, line int32)
	// del forgets b, which must be present.
	del(b dag.BlockID)
}

// directTable is the index over a known universe of dense block ids: entry b
// is one more than the line holding block b, 0 while b is not resident. An
// empty cache's table is all zeros over its whole capacity — Reset deletes
// the resident blocks one by one, O(C) however large the universe — which is
// what lets fit hand the same storage to the next footprint.
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

// blockTable is the index when the universe is unknown. A cache of C lines
// holds at most C blocks, so it is a fixed open-addressed table, not a
// growing map: a power of two ≥ 4C slots, dag.NoBlock — which no cache ever
// holds — as the empty key, Fibonacci hashing, linear probing, and deletion
// by backward shift, so there are no tombstones and a probe sequence never
// outlives its keys. The load factor is held to ¼, not the customary ½: a
// miss-dominated trace does a lookup, a delete and an insert per access, each
// ending on an unpredictable branch per collision — for C = 64 that is a
// 2 KB table, still L1-resident.

type tableSlot struct {
	key dag.BlockID
	val int32
}

type blockTable struct {
	slots []tableSlot
	shift uint8 // 32 - log2(len(slots))
}

// newBlockTable sizes a table for at most n resident keys.
func newBlockTable(n int) blockTable {
	bits := uint8(1)
	for 1<<bits < 4*n {
		bits++
	}
	t := blockTable{slots: make([]tableSlot, 1<<bits), shift: 32 - bits}
	for i := range t.slots {
		t.slots[i].key = dag.NoBlock
	}
	return t
}

// intern numbers blocks densely by first appearance: it returns b's number
// and whether b is new, given that n blocks have been interned so far. It is
// for callers that index all the blocks of a trace or a graph and cannot
// know their number beforehand, so unlike a cache's table — sized once for
// its C lines — this one doubles whenever it gets half full.
func (t *blockTable) intern(b dag.BlockID, n int32) (int32, bool) {
	if id, ok := t.get(b); ok {
		return id, false
	}
	if 2*(int(n)+1) > len(t.slots) {
		old := t.slots
		*t = newBlockTable(len(old) / 2)
		for _, s := range old {
			if s.key != dag.NoBlock {
				t.put(s.key, s.val)
			}
		}
	}
	t.put(b, n)
	return n, true
}

// home is b's preferred slot.
func (t blockTable) home(b dag.BlockID) uint32 {
	return uint32(b) * 2654435769 >> t.shift // 2³²/φ
}

func (t blockTable) get(b dag.BlockID) (int32, bool) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		switch s := t.slots[i]; s.key {
		case b:
			return s.val, true
		case dag.NoBlock:
			return 0, false
		}
	}
}

// put: the caller keeps the table at most half full.
func (t blockTable) put(b dag.BlockID, val int32) {
	mask := uint32(len(t.slots) - 1)
	i := t.home(b)
	for t.slots[i].key != dag.NoBlock {
		i = (i + 1) & mask
	}
	t.slots[i] = tableSlot{key: b, val: val}
}

// del closes the gap it makes: each later entry of the probe run moves back
// into the hole unless its home slot lies cyclically after the hole, up to
// and including its current slot, where a probe for it would no longer pass.
func (t blockTable) del(b dag.BlockID) {
	mask := uint32(len(t.slots) - 1)
	hole := t.home(b)
	for t.slots[hole].key != b {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j].key != dag.NoBlock; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask < (j-hole)&mask {
			continue
		}
		t.slots[hole] = t.slots[j]
		hole = j
	}
	t.slots[hole].key = dag.NoBlock
}

// ---------------------------------------------------------------------------
// Fully associative LRU.
//
// The lines form one circular doubly linked list in recency order, threaded
// through a dense slice of entries: head is the most recently used line and
// its predecessor on the ring the least. A residency index maps a block to
// its line. O(1) per access, and a miss in a full cache — the common case of
// a replay — relinks nothing: the least recently used line takes the new
// block where it is and head steps back onto it.

type lruEntry struct {
	block      dag.BlockID
	prev, next int32
}

type lru[I residency] struct {
	entries  []lruEntry
	index    I
	head     int32 // most recently used; 0 while entries is empty
	misses   int64
	accesses int64
}

func newLRU[I residency](c int, index I) lru[I] {
	return lru[I]{entries: make([]lruEntry, 0, c), index: index}
}

func (l *lru[I]) Name() string    { return "lru" }
func (l *lru[I]) Lines() int      { return cap(l.entries) }
func (l *lru[I]) Misses() int64   { return l.misses }
func (l *lru[I]) Accesses() int64 { return l.accesses }

func (l *lru[I]) Reset() {
	for i := range l.entries {
		l.index.del(l.entries[i].block)
	}
	l.entries = l.entries[:0]
	l.head = 0
	l.misses, l.accesses = 0, 0
}

// pushFront links line i, which is not on the ring, in before head and makes
// it the head.
func (l *lru[I]) pushFront(i int32) {
	es := l.entries
	tail := es[l.head].prev
	es[i].prev, es[i].next = tail, l.head
	es[tail].next, es[l.head].prev = i, i
	l.head = i
}

func (l *lru[I]) Access(b dag.BlockID) bool {
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

type fifo[I residency] struct {
	ring     []dag.BlockID
	index    I // block → its ring slot
	next     int
	filled   int
	misses   int64
	accesses int64
}

func newFIFO[I residency](c int, index I) fifo[I] {
	return fifo[I]{ring: make([]dag.BlockID, c), index: index}
}

func (f *fifo[I]) Name() string    { return "fifo" }
func (f *fifo[I]) Lines() int      { return len(f.ring) }
func (f *fifo[I]) Misses() int64   { return f.misses }
func (f *fifo[I]) Accesses() int64 { return f.accesses }

func (f *fifo[I]) Reset() {
	for _, b := range f.ring[:f.filled] {
		f.index.del(b)
	}
	f.next, f.filled = 0, 0
	f.misses, f.accesses = 0, 0
}

func (f *fifo[I]) Access(b dag.BlockID) bool {
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
// Set-associative LRU (DirectMapped = 1 way). Blocks map to sets by modulo.

type setAssoc struct {
	sets     [][]dag.BlockID // each set ordered most- to least-recently used
	ways     int
	lines    int
	misses   int64
	accesses int64
}

// NewSetAssoc builds a set-associative LRU cache with the given total line
// count and associativity. lines is rounded down to a multiple of ways (but
// kept at least ways). It panics on non-positive arguments.
func NewSetAssoc(lines, ways int) Cache {
	if lines < 1 || ways < 1 {
		panic(fmt.Sprintf("cache: lines=%d ways=%d", lines, ways))
	}
	if ways > lines {
		ways = lines
	}
	nsets := lines / ways
	if nsets < 1 {
		nsets = 1
	}
	s := &setAssoc{
		sets:  make([][]dag.BlockID, nsets),
		ways:  ways,
		lines: nsets * ways,
	}
	for i := range s.sets {
		s.sets[i] = make([]dag.BlockID, 0, ways)
	}
	return s
}

func (s *setAssoc) Name() string {
	if s.ways == 1 {
		return "direct-mapped"
	}
	return fmt.Sprintf("set-assoc-lru-%dway", s.ways)
}
func (s *setAssoc) Lines() int      { return s.lines }
func (s *setAssoc) Misses() int64   { return s.misses }
func (s *setAssoc) Accesses() int64 { return s.accesses }

func (s *setAssoc) Reset() {
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
	s.misses, s.accesses = 0, 0
}

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
