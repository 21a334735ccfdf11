package dag

import (
	"testing"
	"testing/quick"
)

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

func TestIsForkJoinAcceptsCilkStyle(t *testing.T) {
	// spawn; spawn; sync  == touch in LIFO order.
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f1 := m.Fork()
	f1.Steps(2)
	m.Step()
	f2 := m.Fork()
	f2.Steps(2)
	m.Step()
	m.Touch(f2) // LIFO: last forked touched first
	m.Touch(f1)
	m.Step()
	g := b.MustBuild()
	if !g.isForkJoin() {
		t.Fatal("LIFO touches must classify as fork-join")
	}
}

func TestIsForkJoinRejectsMethodA(t *testing.T) {
	// Figure 5(a): touches in FIFO order — structured single-touch but NOT
	// fork-join (the paper's point about added flexibility).
	b := NewBuilder()
	m := b.Main()
	m.Step()
	x := m.Fork()
	x.Steps(2)
	m.Step()
	y := m.Fork()
	y.Steps(2)
	m.Step()
	m.Touch(x) // FIFO: first forked touched first
	m.Touch(y)
	m.Step()
	g := b.MustBuild()
	c := Classify(g)
	if !c.SingleTouch {
		t.Fatalf("should remain single-touch: %v", c.Violations)
	}
	if g.isForkJoin() {
		t.Fatal("FIFO touches must not classify as fork-join")
	}
}

func TestIsForkJoinRejectsPassedFuture(t *testing.T) {
	// Figure 5(b): future touched by a sibling — not even local-touch.
	b := NewBuilder()
	m := b.Main()
	m.Step()
	x := m.Fork()
	x.Steps(2)
	m.Step()
	c := m.Fork()
	c.Step()
	c.Touch(x)
	m.Step()
	m.Touch(c)
	g := b.MustBuild()
	if g.isForkJoin() {
		t.Fatal("passed future must not classify as fork-join")
	}
}

func TestIsForkJoinNested(t *testing.T) {
	// Nested spawn/sync (divide and conquer) is fork-join.
	b := NewBuilder()
	m := b.Main()
	m.Step()
	var build func(t *Thread, d int)
	build = func(t *Thread, d int) {
		if d == 0 {
			t.Step()
			return
		}
		f := t.Fork()
		build(f, d-1)
		t.Step()
		build(t, d-1)
		t.Touch(f)
	}
	build(m, 3)
	m.Step()
	g := b.MustBuild()
	if !g.isForkJoin() {
		t.Fatal("nested divide-and-conquer must be fork-join")
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
