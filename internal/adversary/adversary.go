// Package adversary builds the scripted schedules used by the paper's
// lower-bound proofs. A Script is a sim.Control that serializes execution:
// at any time exactly one processor (the current directive's) is active,
// and the script advances when the directive's condition holds. Because
// deviations and cache misses depend only on per-processor execution
// orders, a serialized schedule is a legitimate schedule of the
// nondeterministic work-stealing machine — this is what makes statements
// like "p2 falls asleep before executing w, p1 steals u1 and takes a solo
// run" replayable and deterministic.
//
// After the last directive completes, the script falls back to a default
// control (everyone active, round-robin steals) so the run always finishes.
package adversary

import (
	"fmt"

	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// Cond is a monotone predicate over execution state: once true it should
// stay true (all helpers below satisfy this), so directive advancement is
// stable no matter how often it is evaluated.
type Cond func(*sim.View) bool

// Executed holds once node n has been executed.
func Executed(n dag.NodeID) Cond {
	return func(v *sim.View) bool { return v.Executed(n) }
}

// Holds is true once processor p has node n assigned (typically: has stolen
// it and parked). It is monotone as long as p stops acting when the
// enclosing directive completes — which the Script guarantees, since a
// parked processor is only reactivated by a later directive.
func Holds(p sim.ProcID, n dag.NodeID) Cond {
	return func(v *sim.View) bool { return v.Assigned(p) == n || v.Executed(n) }
}

// Never keeps a directive active until the engine finishes on its own.
func Never() Cond { return func(*sim.View) bool { return false } }

// AllExecuted holds once every listed node has been executed.
func AllExecuted(ns ...dag.NodeID) Cond {
	return func(v *sim.View) bool {
		for _, n := range ns {
			if !v.Executed(n) {
				return false
			}
		}
		return true
	}
}

// Directive lets Proc act (alone) until Until holds; when it must steal, it
// targets Victim (sim.NoProc disables stealing).
type Directive struct {
	Proc   sim.ProcID
	Until  Cond
	Victim sim.ProcID
	// Note documents the proof step this directive replays.
	Note string
}

// D is shorthand for building a Directive.
func D(p sim.ProcID, until Cond, victim sim.ProcID, note string) Directive {
	return Directive{Proc: p, Until: until, Victim: victim, Note: note}
}

// Script is a sim.Control that runs its directives in order, then falls
// back to a finishing control.
type Script struct {
	ds       []Directive
	cur      int
	fallback sim.Control
}

// NewScript builds a Script with the default fallback (AlwaysActive).
func NewScript(ds ...Directive) *Script {
	return &Script{ds: ds, fallback: sim.AlwaysActive{}}
}

// advance moves past completed directives.
func (s *Script) advance(v *sim.View) {
	for s.cur < len(s.ds) && s.ds[s.cur].Until(v) {
		s.cur++
	}
}

// Active implements sim.Control.
func (s *Script) Active(p sim.ProcID, v *sim.View) bool {
	s.advance(v)
	if s.cur >= len(s.ds) {
		return s.fallback.Active(p, v)
	}
	return p == s.ds[s.cur].Proc
}

// Victim implements sim.Control.
func (s *Script) Victim(p sim.ProcID, v *sim.View) sim.ProcID {
	if s.cur >= len(s.ds) {
		return s.fallback.Victim(p, v)
	}
	return s.ds[s.cur].Victim
}

// ---------------------------------------------------------------------------
// Figure 6 schedules (Theorem 9; future-first).

// Fig6a replays the two-processor schedule of the Figure 6(a) analysis:
// p0 executes v and falls asleep before w; p1 steals u1 and takes a solo
// run through the buffer a; p0 wakes and executes w and the s/Z chains.
// Run with P = 2 and FutureFirst.
func Fig6a(info *graphs.Fig6aInfo) *Script {
	return NewScript(
		D(0, Executed(info.V), sim.NoProc, "p0 executes v, sleeps before w"),
		D(1, Executed(info.A), 0, "p1 steals u1, solo run through a"),
		D(0, Executed(info.End), sim.NoProc, "p0 wakes: w, s/Z chains, t"),
	)
}

// fig6bPhases appends the per-subgraph phases of the Figure 6(b) schedule,
// assuming role a has already executed R[0] and Blocks[0].V (and is parked
// before W). Roles rotate (a,b,c) → (b,c,a) per phase, mirroring the
// paper's three processors taking turns.
func fig6bPhases(ds []Directive, info *graphs.Fig6bInfo, a, b, c sim.ProcID) []Directive {
	for i := 0; i < info.K; i++ {
		blk := info.Blocks[i]
		if i > 0 {
			ds = append(ds, D(a, Executed(blk.V), sim.NoProc,
				fmt.Sprintf("phase %d: a executes r_%d and v, sleeps before w", i+1, i+1)))
		}
		next := info.BNode
		if i+1 < info.K {
			next = info.R[i+1]
		}
		ds = append(ds,
			D(b, Holds(b, next), a, fmt.Sprintf("phase %d: b steals the next spine node and parks", i+1)),
			D(c, Executed(blk.A), a, fmt.Sprintf("phase %d: c steals u1, solo run", i+1)),
			D(a, Executed(blk.End), sim.NoProc, fmt.Sprintf("phase %d: a wakes, finishes chains", i+1)),
		)
		a, b, c = b, c, a
	}
	return append(ds, D(a, Executed(info.Exit), sim.NoProc, "bnode holder executes the tS touches"))
}

// Fig6b replays the three-processor Figure 6(b) schedule. Run with P = 3
// and FutureFirst.
func Fig6b(info *graphs.Fig6bInfo) *Script {
	ds := []Directive{
		D(0, Executed(info.Blocks[0].V), sim.NoProc, "p0 executes r1 and v1, sleeps before w"),
	}
	return NewScript(fig6bPhases(ds, info, 0, 1, 2)...)
}

// Fig6c replays the full Theorem 9 schedule over n leaves. Processor 0
// descends the spawn spine to the last leaf (parking there as its
// a-role); each other leaf j gets the trio (3j+1, 3j+2, 3j+3); the last
// leaf reuses processor 0 plus (3n-2, 3n-1). Run with P = 3·n and
// FutureFirst.
func Fig6c(info *graphs.Fig6cInfo) *Script {
	n := info.N
	ds := []Directive{
		D(0, Executed(info.Leaves[n-1].Blocks[0].V), sim.NoProc,
			"p0 descends the spine into the last leaf, sleeps before w"),
	}
	for j := 0; j < n-1; j++ {
		opener := sim.ProcID(3*j + 1)
		ds = append(ds,
			D(opener, Holds(opener, info.Leaves[j].R[0]), 0,
				fmt.Sprintf("leaf %d: opener steals the leaf entry", j)),
			D(opener, Executed(info.Leaves[j].Blocks[0].V), sim.NoProc,
				fmt.Sprintf("leaf %d: opener executes r1 and v1, sleeps before w", j)),
		)
		ds = fig6bPhases(ds, info.Leaves[j], opener, sim.ProcID(3*j+2), sim.ProcID(3*j+3))
	}
	// Last leaf: processor 0 is already parked at its first v.
	ds = fig6bPhases(ds, info.Leaves[n-1], 0, sim.ProcID(3*n-2), sim.ProcID(3*n-1))
	return NewScript(ds...)
}

// Procs6c returns the processor count Fig6c's script needs.
func Procs6c(info *graphs.Fig6cInfo) int { return 3 * info.N }

// ---------------------------------------------------------------------------
// Figure 7/8 schedules (Theorem 10; parent-first).

// OneSteal replays the single-steal schedule of Theorem 10: p0 executes the
// root fork r; p1 immediately steals the pushed future s, executes it, and
// sleeps forever; p0 executes everything else. Run with P = 2 and
// ParentFirst. Works for both Fig7b (r, s_1) and Fig8 (r, s_0).
func OneSteal(r, s dag.NodeID) *Script {
	return NewScript(
		D(0, Executed(r), sim.NoProc, "p0 executes the root fork"),
		D(1, Executed(s), 0, "p1 steals s, executes it, sleeps forever"),
		D(0, Never(), sim.NoProc, "p0 executes the rest alone"),
	)
}

// Fig3 replays the premature-touch scenario of Figure 3: p0 executes the
// root fork and parks; p1 steals the right child x and runs the consumer
// chain into its touches before any producer has been spawned. Afterwards
// both processors run freely to finish. Run with P = 2 (either policy; the
// paper draws it future-first).
func Fig3(info *graphs.Fig3Info) *Script {
	return NewScript(
		D(0, Executed(info.Root), sim.NoProc, "p0 executes the root fork, parks"),
		D(1, AllExecuted(info.PreTouchSteps...), 0,
			"p1 steals x, walks every consumer branch to its blocked touch"),
	)
}
