// Package telemetry is the always-on counter layer of the runtime's
// observability subsystem: one cache-line-padded row of atomic counters per
// worker (plus one shared row for external goroutines), incremented from
// the scheduler's existing recording hooks at one atomic add per event — or,
// for the per-task counters (tasks run, steals, inline touches, helped tasks,
// blocked touches, spawns), one atomic add per batch the worker has counted
// privately and publishes to its row and its job's counters at once, so the
// rows and the per-job counts agree — and snapshotted without stopping
// anything.
//
// The design split mirrors the profiler's: the profiler records *events*
// (heavyweight, windowed, reconstructable into a DAG), telemetry records
// *counts* (always on, constant memory, servable on a /metrics scrape). A
// production job server needs the second resident at all times — you cannot
// StartProfile your way to a steal-rate dashboard — which is why each
// counter is a plain atomic slot a worker owns nearly exclusively: no
// locks, no sampling, and false sharing is designed away by padding each
// row to cache-line multiples, the same discipline the runtime's W layout
// follows for its scheduling state.
package telemetry

import (
	"sync/atomic"

	"futurelocality/internal/dag"
)

// Counter enumerates the per-row counters. The set covers the scheduler's
// observable proxies (tasks, steal attempts, steals, touch wait modes), the
// spawn mix by fork discipline, the park/wakeup traffic of the idle path, and
// the job-server admission outcomes.
type Counter uint8

const (
	// CTasksRun counts executed tasks.
	CTasksRun Counter = iota
	// CStealAttempts counts steal probes (successful or dry).
	CStealAttempts
	// CSteals counts steals — stolen tasks the thief went on to execute,
	// counted once each, where they run. A thief that loses the claim to an
	// inlining toucher counts a steal attempt and no steal.
	CSteals
	// CStealsCrossDomain is never written and reads 0: a runtime is one steal
	// domain, so no steal crosses a cache-locality boundary inside it. It and
	// CStealsIntraDomain (the steal count under its locality name) stay for
	// callers that still add the two.
	CStealsCrossDomain
	// CInlineTouches counts touches satisfied by inline-running the task.
	CInlineTouches
	// CHelpedTasks counts tasks executed while helping at a touch, except
	// stolen ones: those are steals. An execution is counted at most once, as
	// a steal, a help or an inline touch, in the rows as in the per-job
	// counts and the trace.
	CHelpedTasks
	// CBlockedTouches counts touches that blocked with no work available.
	CBlockedTouches
	// CSpawnsFutureFirst and CSpawnsParentFirst count spawns by fork
	// discipline.
	CSpawnsFutureFirst
	CSpawnsParentFirst
	// CParks and CPollFinds count how a worker's dry episodes end: asleep
	// (a park that finds new work before waiting is not counted), or with
	// work found while the worker polled — from the injection queue or by a
	// steal after the patience interval — counted once per episode, never per
	// poll. Under a steady serve load nearly every episode ends the second
	// way; parks rise only when arrivals are further apart than the poll
	// window. CWakeups counts push-side signals to a parked worker, and
	// each is a wake-up: the signaller counts the sleeper out of the parked
	// count as it signals it, so no later push signals it again, and a
	// worker that wakes to empty queues counts itself back in before it
	// sleeps again. Wake-ups can exceed parks only by those second sleeps.
	CParks
	CWakeups
	CPollFinds
	// CJobsSubmitted, CJobsCompleted and CJobsShed count job-server
	// admission outcomes: accepted submissions, completions (any path,
	// including shutdown cancellation), and ErrSaturated rejections.
	CJobsSubmitted
	CJobsCompleted
	CJobsShed
	// NumCounters is the row width.
	NumCounters
)

// CStealsIntraDomain is CSteals: with one steal domain every steal is
// intra-domain.
const CStealsIntraDomain = CSteals

// name returns the counter's snake_case metric name (the Prometheus suffix
// and expvar key).
func (c Counter) name() string {
	switch c {
	case CTasksRun:
		return "tasks_run"
	case CStealAttempts:
		return "steal_attempts"
	case CSteals:
		return "steals"
	case CStealsCrossDomain:
		return "steals_cross_domain"
	case CInlineTouches:
		return "inline_touches"
	case CHelpedTasks:
		return "helped_tasks"
	case CBlockedTouches:
		return "blocked_touches"
	case CSpawnsFutureFirst:
		return "spawns_future_first"
	case CSpawnsParentFirst:
		return "spawns_parent_first"
	case CParks:
		return "parks"
	case CWakeups:
		return "wakeups"
	case CPollFinds:
		return "poll_finds"
	case CJobsSubmitted:
		return "jobs_submitted"
	case CJobsCompleted:
		return "jobs_completed"
	case CJobsShed:
		return "jobs_shed"
	default:
		return "unknown"
	}
}

// SpawnCounter maps a fork discipline to its spawn counter. Branch-free for
// the spawn hot path: the spawn counters are laid out in discipline-value
// order (FutureFirst=0, ParentFirst=1), pinned by TestPolicyCounterMapping.
func SpawnCounter(d dag.Discipline) Counter {
	return CSpawnsFutureFirst + Counter(d)
}

// cacheLine is the padding unit (64 bytes on amd64/arm64).
const cacheLine = 64

// rowPad rounds the counter array up to a cache-line multiple so adjacent
// rows in a Set never share a line — worker i hammering its counters must
// not bounce the line worker i+1 reads its own from.
const rowPad = (cacheLine - (NumCounters*8)%cacheLine) % cacheLine

// Row is one context's counters: owner-incremented (each worker owns its
// row; the external row is shared by non-worker goroutines), reader-
// snapshotted. An update is one atomic add: Inc at the event for most
// counters; for CTasksRun, CInlineTouches and the two spawn counters of a
// worker's row, Add of what the worker has counted in plain fields since it
// last published — which it does before anyone can wait for the tasks
// counted, and at least every 256 of them (see runtime.W.publish). Between
// publications those four trail a running worker by at most that much.
type Row struct {
	c [NumCounters]atomic.Int64
	_ [rowPad]byte
}

// Inc adds 1 to counter c.
func (r *Row) Inc(c Counter) { r.c[c].Add(1) }

// Add adds n to counter c.
func (r *Row) Add(c Counter, n int64) { r.c[c].Add(n) }

// Load reads counter c.
func (r *Row) Load(c Counter) int64 { return r.c[c].Load() }

// Set is a runtime's full counter matrix: one row per worker plus one
// trailing row for external (non-worker) contexts. Allocated once at
// runtime construction; rows are handed out by pointer so the hot path
// never indexes through the Set.
type Set struct {
	rows []Row
}

// NewSet allocates rows for the given worker count (plus the external row).
func NewSet(workers int) *Set {
	return &Set{rows: make([]Row, workers+1)}
}

// Row returns worker i's row.
func (s *Set) Row(i int) *Row { return &s.rows[i] }

// External returns the shared row for non-worker contexts (job submission,
// external spawns and wakeups).
func (s *Set) External() *Row { return &s.rows[len(s.rows)-1] }

// Snapshot copies every row. Approximate while workers run, like any live
// counter read.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{Rows: make([][NumCounters]int64, len(s.rows))}
	for i := range s.rows {
		for c := 0; c < int(NumCounters); c++ {
			snap.Rows[i][c] = s.rows[i].c[c].Load()
		}
	}
	return snap
}

// Snapshot is a point-in-time copy of a Set: per-row counter values, workers
// first, the external row last. Snapshots subtract (Sub) to form deltas, so
// a scraper can report rates over its own window.
type Snapshot struct {
	Rows [][NumCounters]int64
}

// workers returns the worker-row count (excluding the external row).
func (s Snapshot) workers() int {
	if len(s.Rows) == 0 {
		return 0
	}
	return len(s.Rows) - 1
}

// Total sums counter c across all rows (workers and external).
func (s Snapshot) Total(c Counter) int64 {
	var n int64
	for i := range s.Rows {
		n += s.Rows[i][c]
	}
	return n
}

// worker returns worker i's value of counter c.
func (s Snapshot) worker(i int, c Counter) int64 { return s.Rows[i][c] }

// Steals returns the steal count across all rows.
func (s Snapshot) Steals() int64 { return s.Total(CSteals) }

// Sub returns the delta snapshot s - prev (counter-wise, row-wise). Both
// snapshots must come from the same Set; counters are monotone, so the
// result is a valid snapshot of the window between the two.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{Rows: make([][NumCounters]int64, len(s.Rows))}
	for i := range s.Rows {
		out.Rows[i] = s.Rows[i]
		if i < len(prev.Rows) {
			for c := range out.Rows[i] {
				out.Rows[i][c] -= prev.Rows[i][c]
			}
		}
	}
	return out
}
