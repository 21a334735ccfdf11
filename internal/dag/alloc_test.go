//go:build !race

// Allocation budgets, excluded under -race (the race runtime adds its own
// allocations); CI runs them in its no-race pass.
package dag_test

import (
	"testing"

	"futurelocality/internal/dag"
)

// TestForkAllocBudget pins the builder's thread slab: a fork allocates no
// handle of its own. With the tables reserved, a builder making 1 024 forks
// allocates a fixed handful of times (one per table and slab chunk); without,
// each table grows geometrically, so the count stays logarithmic, not one per
// fork.
func TestForkAllocBudget(t *testing.T) {
	const forks = 1024
	build := func(reserve bool) func() {
		return func() {
			b := dag.NewBuilder()
			if reserve {
				b.Reserve(2*forks+1, forks+1)
			}
			m := b.Main()
			for i := 0; i < forks; i++ {
				m.Fork().Step()
			}
		}
	}
	if got := testing.AllocsPerRun(20, build(true)); got > 16 {
		t.Errorf("reserved: %d forks allocated %.0f times, budget 16", forks, got)
	}
	if got := testing.AllocsPerRun(20, build(false)); got > 128 {
		t.Errorf("unreserved: %d forks allocated %.0f times, budget 128", forks, got)
	}
}
