package dag

import "sync"

// memo holds the facts the analysis packages compute once per graph, under
// keys of their own types (Memo). A built graph is never written again, so a
// fact of it never goes stale, and it lives exactly as long as the graph. The
// first chunk of cells is part of the graph: the five or six facts an
// analysis keeps of one graph allocate no cell.
type memo struct {
	mu   sync.Mutex
	n    int // cells in use, chunk after chunk
	head memoChunk
}

// memoChunk is a run of cells; further chunks are allocated as needed and
// never move, so a cell's address is stable while its fact is computed.
type memoChunk struct {
	cells [8]memoCell
	next  *memoChunk
}

// memoCell is one fact: computed by the first goroutine to ask for it, while
// any other that asks at the same time waits for it.
type memoCell struct {
	key  any
	once sync.Once
	v    any
}

// Memo returns the fact of g stored under key, computing it as compute(g,
// key) the first time any goroutine asks for it. Keys of distinct types never
// collide, so a package that keys its facts by a type of its own owns them.
// compute must depend on g and key alone, and the value it returns is shared
// by every caller from then on: it must not be mutated.
//
// The memo's lock is held only to find the fact's cell: a fact is asked for
// once per analysis, not per node, and a graph keeps a handful.
func Memo[K comparable, V any](g *Graph, key K, compute func(*Graph, K) V) V {
	m := &g.memo
	m.mu.Lock()
	var c *memoCell
	ch := &m.head
	for i := 0; i < m.n; i++ {
		if i > 0 && i%len(ch.cells) == 0 {
			ch = ch.next
		}
		if cell := &ch.cells[i%len(ch.cells)]; cell.key == any(key) {
			c = cell
			break
		}
	}
	if c == nil {
		i := m.n % len(ch.cells)
		if m.n > 0 && i == 0 {
			ch.next = new(memoChunk)
			ch = ch.next
		}
		c = &ch.cells[i]
		c.key = key
		m.n++
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v = compute(g, key) })
	return c.v.(V)
}

// MemoKeys returns the keys of the facts computed into g's memo so far, in
// the order they were first asked for.
func MemoKeys(g *Graph) []any {
	m := &g.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]any, 0, m.n)
	ch := &m.head
	for i := 0; i < m.n; i++ {
		if i > 0 && i%len(ch.cells) == 0 {
			ch = ch.next
		}
		keys = append(keys, ch.cells[i%len(ch.cells)].key)
	}
	return keys
}

// Class returns Classify(g), computed once per graph: the analyses read it
// here, and Classify stays the computation.
func (g *Graph) Class() Class {
	g.class.Do(func() { g.class.c = Classify(g) })
	return g.class.c
}
