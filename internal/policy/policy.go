// Package policy defines the scheduling-policy vocabulary shared by the
// scheduler simulator (internal/sim) and the real work-stealing runtime
// (internal/runtime). Both layers schedule the same two abstract choices —
// at a fork, which side does the executing processor run first; out of
// work, how does a thief pick a victim — but they used to spell them with
// disconnected (or hardwired) types. A single
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
// The steal vocabulary has one word, the thief the runtime is and every
// theorem assumes: RandomSingle, one task from the top of a uniformly random
// victim's deque per visit.
package policy

import "fmt"

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

// StealPolicy selects whom an out-of-work processor robs. Like Discipline,
// it is one vocabulary for the simulator (sim.Config.Steal) and the runtime,
// which has one steal rule and names it with RandomSingle (see
// runtime.Runtime.StealPolicy).
type StealPolicy uint8

// RandomSingle steals one task from the top of a uniformly random victim —
// the paper's parsimonious baseline, the only steal discipline under which
// the Theorem 8/12/16/18 envelopes are granted, and the only one defined.
const RandomSingle StealPolicy = 0

// String names the steal policy.
func (s StealPolicy) String() string {
	if s == RandomSingle {
		return "random-single"
	}
	return fmt.Sprintf("stealpolicy(%d)", uint8(s))
}

// Valid reports whether s is the defined steal policy.
func (s StealPolicy) Valid() bool { return s == RandomSingle }
