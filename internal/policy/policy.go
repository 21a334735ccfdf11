// Package policy defines the scheduling-policy vocabulary shared by the
// scheduler simulator (internal/sim) and the real work-stealing runtime
// (internal/runtime). Both layers schedule the same two abstract choices —
// at a fork, which side does the executing processor run first; out of
// work, how does a thief pick a victim and how much does it take — but
// they used to spell them with disconnected (or hardwired) types. A single
// Discipline and a single StealPolicy let a runtime configuration, a
// per-spawn override, a recorded profile event, and a simulator replay all
// name the policy identically, so measured deviations can be attributed to
// the policy that produced them.
//
// The fork vocabulary is the paper's (Herlihy & Liu, PPoPP 2014,
// Section 3):
//
//   - FutureFirst ("future thread first"): the processor dives into the
//     future thread; the parent continuation is exposed for theft. For
//     structured single-touch computations Theorem 8 bounds deviations by
//     O(P·T∞²) under this policy.
//   - ParentFirst ("parent thread first"): the processor continues with the
//     parent; the future thread is exposed for theft. Theorem 10 shows this
//     can cost Ω(C·t·n) additional cache misses — catastrophically worse.
//
// The steal vocabulary names the discipline of the thief side:
//
//   - RandomSingle: a thief robs one task from the top of a uniformly
//     random victim — the parsimonious discipline every theorem assumes.
//   - StealHalf: a thief drains half the victim's deque in one visit
//     (Hendler & Shavit's steal-half heuristic), trading steal frequency
//     for batch displacement. The bounds do not cover it: each displaced
//     task is its own deviation, so a batch of k can cost k deviations
//     where RandomSingle costs one.
//   - LastVictimAffinity: a thief returns to the victim its last successful
//     steal came from before probing randomly, modeling locality-aware
//     victim selection for pointer-chasing workloads. Also outside the
//     theorems' assumptions (victims are no longer uniform).
//   - Hierarchical: a thief exhausts victims inside its own cache-locality
//     domain (LLC-sharing group, see internal/topology) before probing
//     across a domain boundary — cache-topology-aware victim selection.
//     Also outside the theorems' assumptions, but the closest to the
//     paper's motivation: a cross-LLC steal is the expensive kind of
//     deviation the miss bound prices.
package policy

import (
	"fmt"
	"strings"
)

// Discipline selects which side of a fork the executing processor runs
// first; the other side is exposed for theft.
type Discipline uint8

const (
	// FutureFirst executes the future thread (left fork child) and exposes
	// the parent continuation — the policy Theorem 8 analyzes and the paper
	// recommends.
	FutureFirst Discipline = iota
	// ParentFirst executes the parent continuation (right fork child) and
	// exposes the future thread — the policy Theorem 10 shows is bad.
	ParentFirst
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FutureFirst:
		return "future-first"
	case ParentFirst:
		return "parent-first"
	default:
		return fmt.Sprintf("discipline(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the defined disciplines.
func (d Discipline) Valid() bool { return d == FutureFirst || d == ParentFirst }

// Parse reads a discipline name as written by String (used by CLI flags).
func Parse(s string) (Discipline, error) {
	switch s {
	case "future-first", "futurefirst", "ff":
		return FutureFirst, nil
	case "parent-first", "parentfirst", "pf":
		return ParentFirst, nil
	default:
		return 0, fmt.Errorf("policy: unknown discipline %q (want future-first or parent-first)", s)
	}
}

// StealPolicy selects how an out-of-work processor robs a victim: whom it
// targets and how many tasks it takes per successful visit. Like
// Discipline, it is one vocabulary for the simulator (sim.Config.Steal),
// the runtime (which has one steal rule and names it RandomSingle or
// Hierarchical by its topology), and the profiler (per-steal attribution).
type StealPolicy uint8

const (
	// RandomSingle steals one task from the top of a uniformly random
	// victim — the paper's parsimonious baseline, and the only steal
	// discipline under which the Theorem 8/12/16/18 envelopes are granted.
	RandomSingle StealPolicy = iota
	// StealHalf steals half of the victim's deque (at least one task) in
	// one visit; the thief runs the oldest and keeps the rest on its own
	// deque. Fewer steal visits, but every displaced task that executes
	// counts as its own deviation.
	StealHalf
	// LastVictimAffinity retries the victim of the thief's last successful
	// steal before probing randomly, and forgets it after a dry visit.
	LastVictimAffinity
	// Hierarchical exhausts intra-domain victims (workers sharing the
	// thief's LLC, per the runtime's topology assignment) before probing
	// victims across a domain boundary; it takes one task from the top,
	// like RandomSingle.
	Hierarchical
)

// String names the steal policy.
func (s StealPolicy) String() string {
	switch s {
	case RandomSingle:
		return "random-single"
	case StealHalf:
		return "steal-half"
	case LastVictimAffinity:
		return "last-victim"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("stealpolicy(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the defined steal policies.
func (s StealPolicy) Valid() bool { return s <= Hierarchical }

// StealPolicies lists every defined steal policy, in declaration order —
// the iteration set for (fork × steal) sweeps.
var StealPolicies = []StealPolicy{RandomSingle, StealHalf, LastVictimAffinity, Hierarchical}

// StealNames returns every steal policy's canonical name, in declaration
// order. Error messages and flag help text enumerate from here, so adding
// a policy cannot drift them.
func StealNames() []string {
	names := make([]string, len(StealPolicies))
	for i, s := range StealPolicies {
		names[i] = s.String()
	}
	return names
}

// StealBatchMax caps how many tasks one StealHalf visit may take. It is
// part of the policy's definition: the cap a batch-stealing scheduler's
// per-thief buffer would have, so a sim replay of a wide-deque DAG takes no
// batch a real scheduler could not.
const StealBatchMax = 32

// ParseSteal reads a steal-policy name as written by String (CLI flags).
func ParseSteal(s string) (StealPolicy, error) {
	switch s {
	case "random-single", "randomsingle", "random", "rs":
		return RandomSingle, nil
	case "steal-half", "stealhalf", "half", "sh":
		return StealHalf, nil
	case "last-victim", "lastvictim", "affinity", "lv":
		return LastVictimAffinity, nil
	case "hierarchical", "hier", "topo", "hr":
		return Hierarchical, nil
	default:
		names := StealNames()
		return 0, fmt.Errorf("policy: unknown steal policy %q (want %s or %s)",
			s, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
}
