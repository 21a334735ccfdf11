package profile

// The live envelope gauge: the slice of the analysis stack a /metrics scrape
// can afford. A full Analyze replays the DAG through the simulator (Trials
// schedules, optionally a 6-cell policy matrix) — right for a debug dump,
// wrong for an endpoint hit every few seconds. WindowEnvelope does only the
// bound check the paper's theorems state: reconstruct the window, classify
// the DAG, compare measured deviations against P·T∞². No replay.
//
// What that costs: Reconstruct is one pass over the window's events plus a
// Builder replay of the tasks they name, and it is nearly all of the bill —
// about half a microsecond per event, 8 ms for a four-worker window of 4 096
// events per ring and 30 ms at 16 384. dag.Classify on the result (a graph
// Builder.Build has validated, which Classify requires) searches from each
// fork only as far as the touch it is matched with: 0.06 ms and 1.2 ms on
// those two windows. So the gauge scales with the ring size the operator
// chose, not with its square.

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
	// under the policy pair the window ran under (WindowEnvelope's fork and
	// steal: future-first × random-single is the one cell they cover), else 0.
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
		s += fmt.Sprintf(", envelope none (class %q under the recorder's policy pair)", e.Class)
	}
	if e.Truncated > 0 {
		s += fmt.Sprintf(" [%d trace gaps]", e.Truncated)
	}
	return s
}

// WindowEnvelope reconstructs tr (typically a Flight.Collect window) and
// returns its envelope reading for p processors (p <= 0 defaults to the
// trace's worker count). The bound is checked under fork × steal, the policy
// pair whoever recorded the window ran under; the zero values are future-first
// × random-single, the pair the theorems grant envelopes for and Analyze's
// default.
func WindowEnvelope(tr *Trace, p int, fork sim.ForkPolicy, steal sim.StealPolicy) (Envelope, error) {
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
		Tasks:      rec.Tasks,
		Class:      class,
		Span:       rec.Graph.Span(),
		Deviations: rec.MeasuredDeviations(),
		Truncated:  len(rec.Incomplete),
	}
	if core.BoundApplies(class, fork, steal) {
		env.Budget = int64(p) * env.Span * env.Span
	}
	return env, nil
}
