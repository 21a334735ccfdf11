package profile

// The live envelope gauge: the slice of the analysis stack a /metrics scrape
// can afford. A full Analyze replays the DAG through the simulator (Trials
// schedules, optionally a second for the fork matrix) — right for a debug dump,
// wrong for an endpoint hit every few seconds. WindowEnvelope does only the
// bound check the paper's theorems state: reconstruct the window, classify
// the DAG, compare measured deviations against P·T∞². No replay.
//
// What that costs: Reconstruct is three sweeps over the window's events (the
// counters, the task index, the steps laid out task by task) plus a Builder
// replay of the tasks they name, and it is most of the bill — 120–190 ns per
// event on a 2-vCPU Xeon, 2–3 ms for a four-worker fib window of 4 096 events
// per worker and 9–13 ms at 16 384 (8 ms and 39 ms while it kept per-task
// objects in maps). dag.Classify on the result (a graph Builder.Build has
// validated, which Classify requires) searches from each fork only as far as
// the touch it is matched with: 0.3–0.4 ms and 1.2–2 ms on those two windows.
// So the gauge scales with the window the operator chose, not with its
// square.

import (
	"fmt"

	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
)

// Envelope is one rolling envelope reading over a trace window: the
// measured deviations the window recorded vs the P·T∞² budget its
// reconstructed DAG grants. It is the gauge form of Report's envelope line.
type Envelope struct {
	// P is the processor count the budget was computed for.
	P int
	// Events is the window's event count; Tasks its observed task count.
	Events, Tasks int
	// Class is the window DAG's classification; Span its T∞.
	Class dag.Class
	Span  int64
	// Deviations = steals + helped + blocked measured in the window.
	Deviations int64
	// Budget is P·T∞² when the theorems grant a bound for the window's class
	// under the fork discipline the window ran under (WindowEnvelope's fork:
	// future-first is the one they cover), else 0.
	Budget int64
	// Truncated counts the reconstruction's Incomplete notes — nonzero for
	// a flight window whose front was overwritten, the expected steady
	// state of a ring that has wrapped.
	Truncated int
}

// Within reports whether the window's deviations stayed inside the budget
// (vacuously true when none is granted).
func (e Envelope) Within() bool { return e.Budget == 0 || e.Deviations <= e.Budget }

// String renders the gauge compactly, e.g. for a CLI snapshot line.
func (e Envelope) String() string {
	s := fmt.Sprintf("window: %d events, %d tasks, class=%s, deviations=%d",
		e.Events, e.Tasks, e.Class, e.Deviations)
	if e.Budget > 0 {
		s += fmt.Sprintf(", envelope P·T∞²=%d·%d²=%d, within=%v", e.P, e.Span, e.Budget, e.Within())
	} else {
		s += fmt.Sprintf(", envelope none (class %q under the recorder's fork discipline)", e.Class)
	}
	if e.Truncated > 0 {
		s += fmt.Sprintf(" [%d trace gaps]", e.Truncated)
	}
	return s
}

// WindowEnvelope reconstructs tr (typically a Flight.Collect window) and
// returns its envelope reading for p processors (p <= 0 defaults to the
// trace's worker count). The bound is checked under fork, the discipline
// whoever recorded the window ran under, and the random-single thief the
// runtime is; the zero value is future-first, the discipline the theorems
// grant envelopes for and the one Analyze's primary replay runs.
func WindowEnvelope(tr *Trace, p int, fork sim.ForkPolicy) (Envelope, error) {
	rec, err := Reconstruct(tr)
	if err != nil {
		return Envelope{}, err
	}
	if p <= 0 {
		p = tr.Workers()
		if p <= 0 {
			p = 1
		}
	}
	class := dag.Classify(rec.Graph)
	env := Envelope{
		P:          p,
		Events:     tr.Len(),
		Tasks:      len(rec.Tasks),
		Class:      class,
		Span:       rec.Graph.Span(),
		Deviations: rec.MeasuredDeviations(),
		Truncated:  len(rec.Incomplete),
	}
	if core.BoundApplies(class, fork) {
		env.Budget = int64(p) * env.Span * env.Span
	}
	return env, nil
}
