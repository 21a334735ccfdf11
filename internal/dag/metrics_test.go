package dag

import (
	"testing"
	"testing/quick"
)

// criticalPath returns one longest directed path in the graph, root-to-sink
// order: a second computation of Span, which the tests below hold it to.
func (g *Graph) criticalPath() []NodeID {
	if len(g.Nodes) == 0 {
		return nil
	}
	depth := make([]int64, len(g.Nodes))
	pred := make([]NodeID, len(g.Nodes))
	for i := range pred {
		pred[i] = None
	}
	best := NodeID(0)
	for id := range g.Nodes {
		d := depth[id] + 1
		for _, e := range g.Nodes[id].OutEdges() {
			if depth[e.To] < d {
				depth[e.To] = d
				pred[e.To] = NodeID(id)
			}
		}
		if depth[id] >= depth[best] {
			best = NodeID(id)
		}
	}
	var rev []NodeID
	for v := best; v != None; v = pred[v] {
		rev = append(rev, v)
	}
	out := make([]NodeID, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

func TestCriticalPathChain(t *testing.T) {
	b := NewBuilder()
	b.Main().Steps(7)
	g := b.MustBuild()
	p := g.criticalPath()
	if int64(len(p)) != g.Span() {
		t.Fatalf("path len %d != span %d", len(p), g.Span())
	}
	for i, v := range p {
		if v != NodeID(i) {
			t.Fatalf("path[%d] = %d", i, v)
		}
	}
}

func TestCriticalPathIsARealPath(t *testing.T) {
	g, _ := buildFig4(t)
	p := g.criticalPath()
	if int64(len(p)) != g.Span() {
		t.Fatalf("path len %d != span %d", len(p), g.Span())
	}
	if p[0] != g.Root || p[len(p)-1] != g.Final {
		t.Fatalf("path endpoints %d..%d, want %d..%d", p[0], p[len(p)-1], g.Root, g.Final)
	}
	for i := 1; i < len(p); i++ {
		found := false
		for _, e := range g.Nodes[p[i-1]].OutEdges() {
			if e.To == p[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("no edge %d -> %d", p[i-1], p[i])
		}
	}
}

// TestCriticalPathPropertyRandom: on arbitrary well-formed graphs from the
// chain/fork/touch space, CriticalPath length always equals Span and is a
// real path.
func TestCriticalPathPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed)
		p := g.criticalPath()
		if int64(len(p)) != g.Span() {
			return false
		}
		for i := 1; i < len(p); i++ {
			ok := false
			for _, e := range g.Nodes[p[i-1]].OutEdges() {
				if e.To == p[i] {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
