package sim

import (
	"math/rand"

	"futurelocality/internal/dag"
)

// Control drives scheduling decisions that the work-stealing algorithm
// leaves open: which processors take a step, and whom an out-of-work
// processor tries to rob. Implementations must be deterministic functions of
// their own state and the View for reproducibility.
type Control interface {
	// Active reports whether processor p acts during the current sweep.
	Active(p ProcID, v *View) bool
	// Victim picks a steal victim for p, or NoProc to stay idle this sweep.
	Victim(p ProcID, v *View) ProcID
}

// View exposes read-only execution state to Control implementations.
type View struct {
	e *Engine
}

// Step returns the current sweep number.
func (v *View) Step() int64 { return v.e.steps }

// Executed reports whether node n has been executed.
func (v *View) Executed(n dag.NodeID) bool { return n != dag.None && v.e.when[n] >= 0 }

// Assigned returns the node processor p is about to execute (dag.None if
// it has none).
func (v *View) Assigned(p ProcID) dag.NodeID { return v.e.assigned[p] }

// P returns the processor count.
func (v *View) P() int { return v.e.cfg.P }

// Graph returns the computation being executed.
func (v *View) Graph() *dag.Graph { return v.e.g }

// AlwaysActive keeps every processor running and steals round-robin
// starting from the next processor. Deterministic; good default for
// single-processor baselines.
type AlwaysActive struct{}

// Active always reports true.
func (AlwaysActive) Active(ProcID, *View) bool { return true }

// Victim rotates over the other processors by sweep parity.
func (AlwaysActive) Victim(p ProcID, v *View) ProcID {
	n := v.P()
	if n == 1 {
		return NoProc
	}
	return ProcID((int(p) + 1 + int(v.Step())%(n-1)) % n)
}

// RandomControl keeps every processor active and picks uniformly random
// steal victims — the standard randomized work-stealing model whose steal
// count is O(P·T∞) in expectation (Arora–Blumofe–Plaxton), which Theorem 8
// relies on.
type RandomControl struct {
	rng *rand.Rand
}

// NewRandomControl returns a control seeded for reproducibility.
func NewRandomControl(seed int64) *RandomControl {
	return &RandomControl{rng: rand.New(rand.NewSource(seed))}
}

// Active always reports true.
func (c *RandomControl) Active(ProcID, *View) bool { return true }

// Victim picks a uniformly random other processor.
func (c *RandomControl) Victim(p ProcID, v *View) ProcID {
	n := v.P()
	if n == 1 {
		return NoProc
	}
	k := c.rng.Intn(n - 1)
	if ProcID(k) >= p {
		k++
	}
	return ProcID(k)
}
