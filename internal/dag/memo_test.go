package dag

import (
	"sync"
	"sync/atomic"
	"testing"
)

// memoTestKey is a key type only this test uses.
type memoTestKey struct{ i int }

// TestMemoComputesOncePerKey: four goroutines ask one graph for twenty facts
// — more than a chunk of cells holds — each fact many times, while the graph
// is also asked for its class. Every fact is computed once, every caller gets
// the value of its own key, and the memo lists each key once.
func TestMemoComputesOncePerKey(t *testing.T) {
	g, _ := buildFig4(t)
	const keys = 20
	var computed [keys]atomic.Int32
	compute := func(g *Graph, k memoTestKey) *int {
		computed[k.i].Add(1)
		v := k.i * 10
		return &v
	}
	want := Classify(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range keys {
					k := (i + w*5) % keys
					if v := *Memo(g, memoTestKey{k}, compute); v != k*10 {
						t.Errorf("key %d: got %d", k, v)
					}
				}
				if c := g.Class(); c.Structured != want.Structured || c.SingleTouch != want.SingleTouch {
					t.Errorf("Class() = %v, Classify = %v", c, want)
				}
			}
		}()
	}
	wg.Wait()
	for i := range computed {
		if n := computed[i].Load(); n != 1 {
			t.Errorf("key %d computed %d times", i, n)
		}
	}
	seen := map[any]bool{}
	for _, k := range MemoKeys(g) {
		if seen[k] {
			t.Errorf("key %v listed twice", k)
		}
		seen[k] = true
	}
	if len(seen) != keys {
		t.Errorf("MemoKeys lists %d keys, want %d", len(seen), keys)
	}
}
