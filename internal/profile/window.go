package profile

// The live envelope gauge: the slice of the analysis stack a /metrics scrape
// can afford. A full Analyze replays the DAG through the simulator (Trials
// schedules, optionally a second for the fork matrix) — right for a debug dump,
// wrong for an endpoint hit every few seconds. WindowReading does only the
// bound check the paper's theorems state: reconstruct the window, classify
// the DAG, judge measured deviations against P·T∞². No replay.
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

// WindowReading reconstructs tr (typically a Flight.Collect window) and
// returns its reading for p processors (p <= 0 defaults to the trace's worker
// count), built as each job's reading is: judged under the fork disciplines
// its spawns recorded and the random-single thief the runtime is. A window
// whose front was overwritten, the steady state of a ring that has wrapped,
// reads with Recon.Incomplete notes.
func WindowReading(tr *Trace, p int) (Reading, error) {
	rec, err := Reconstruct(tr)
	if err != nil {
		return Reading{}, err
	}
	if p <= 0 {
		p = max(tr.workers(), 1)
	}
	return read(rec, p), nil
}
