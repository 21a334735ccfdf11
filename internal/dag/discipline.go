package dag

import "fmt"

// Discipline selects which side of a fork the executing processor runs
// first; the other side is exposed for theft. It is one vocabulary for the
// simulator (sim.Config.Policy), the runtime (its default and each
// SpawnWith) and the profiler (each traced spawn), in the paper's terms
// (Section 3):
//
//   - FutureFirst ("future thread first"): the processor dives into the
//     future thread; the parent continuation is exposed for theft. For
//     structured single-touch computations Theorem 8 bounds deviations by
//     O(P·T∞²) under this policy.
//   - ParentFirst ("parent thread first"): the processor continues with the
//     parent; the future thread is exposed for theft. Theorem 10 shows this
//     can cost Ω(C·t·n) additional cache misses — catastrophically worse.
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

// ParseDiscipline reads a discipline name as written by String (used by CLI
// flags).
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "future-first", "futurefirst", "ff":
		return FutureFirst, nil
	case "parent-first", "parentfirst", "pf":
		return ParentFirst, nil
	default:
		return 0, fmt.Errorf("dag: unknown discipline %q (want future-first or parent-first)", s)
	}
}
