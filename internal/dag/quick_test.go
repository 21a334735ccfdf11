package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraphForQuick builds a small random-but-valid structured
// computation for property tests (the full-featured generator lives in
// internal/graphs; this local one avoids an import cycle).
func randomGraphForQuick(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	budget := 30 + rng.Intn(120)
	var gen func(t *Thread, depth int)
	gen = func(t *Thread, depth int) {
		t.Access(BlockID(rng.Intn(8)))
		budget--
		var open []*Thread
		steps := 1 + rng.Intn(8)
		lastFork := false
		for i := 0; i < steps && budget > 0; i++ {
			switch {
			case rng.Intn(4) == 0 && depth < 5 && budget > 3:
				c := t.Fork()
				gen(c, depth+1)
				open = append(open, c)
				lastFork = true
			case rng.Intn(3) == 0 && len(open) > 0:
				if lastFork {
					t.Step()
					budget--
				}
				t.Touch(open[len(open)-1])
				open = open[:len(open)-1]
				budget--
				lastFork = false
			default:
				t.Access(BlockID(rng.Intn(8)))
				budget--
				lastFork = false
			}
		}
		for i := len(open) - 1; i >= 0; i-- {
			if lastFork {
				t.Step()
				budget--
			}
			t.Touch(open[i])
			budget--
			lastFork = false
		}
	}
	gen(b.Main(), 0)
	b.Main().Step()
	return b.MustBuild()
}

// TestQuickRandomGraphsValidate: every random graph passes Validate and the
// basic metric sanity checks.
func TestQuickRandomGraphsValidate(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed)
		if err := g.validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g.Span() < 1 || g.Span() > g.Work() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTopologicalIDs: edges always increase node IDs (the invariant
// everything else builds on).
func TestQuickTopologicalIDs(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed)
		for id := range g.Nodes {
			for _, e := range g.Nodes[id].OutEdges() {
				if e.To <= NodeID(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLIFOBuiltGraphsAreForkJoin: graphs built with strictly LIFO
// touches, fork-join programs, classify as structured, single-touch and
// local-touch.
func TestQuickLIFOBuiltGraphsAreForkJoin(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed) // LIFO by construction (touch last fork)
		c := Classify(g)
		return c.SingleTouch && c.LocalTouch && c.Structured
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTouchInfoConsistency: recorded touch metadata matches the
// actual edges.
func TestQuickTouchInfoConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed)
		for _, ti := range g.Touches {
			// Future parent has an edge to the touch.
			found := false
			for _, e := range g.Nodes[ti.FutureParent].OutEdges() {
				if e.To == ti.Node && (e.Kind == EdgeTouch || e.Kind == EdgeJoin) {
					found = true
				}
			}
			if !found {
				return false
			}
			if g.Nodes[ti.FutureParent].Thread != ti.FutureThread {
				return false
			}
			if ti.Fork != g.ThreadFork[ti.FutureThread] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
