// Package profile is the live execution profiler: it records scheduling
// events from the real work-stealing runtime (internal/runtime) with
// near-zero overhead, reconstructs the computation DAG the run actually
// performed, classifies it against the paper's structure definitions
// (Definitions 1/2/3/13/17 via dag.Classify), counts the measured runtime
// deviations (steals plus helped and blocked touches — the observable
// proxies of Section 4's deviation count), and compares them against the
// Theorem 8/9/10 envelopes and against a simulator replay of the same DAG.
//
// This closes the repro gap internal/runtime's doc comment concedes: the
// model layers (internal/dag, internal/sim) and the real runtime never
// talked to each other. With the profiler, one run produces both the
// predicted numbers (sim replay of the reconstructed DAG) and the measured
// ones, side by side.
//
// The pieces:
//
//   - Event, Recorder (recorder.go): the wire format and the lock-free
//     per-worker chunked event log the runtime writes into. Recording costs
//     one atomic pointer load when disabled; one event store plus one
//     atomic length store when enabled.
//   - Trace: the collected event log of one profiling session.
//   - Reconstruct (reconstruct.go): replays a Trace into a dag.Builder,
//     producing the run's computation DAG plus the measured counters.
//   - Analyze, Report (report.go): classification, measured deviations vs
//     the P·T∞² envelope, and the sim-replayed prediction for the same DAG.
package profile

import (
	"fmt"

	"futurelocality/internal/policy"
)

// Kind enumerates the scheduling events the runtime records.
type Kind uint8

const (
	// KindNone is the zero value; it never appears in a collected trace.
	KindNone Kind = iota
	// KindSpawn records a future (or stream producer) creation: Task is the
	// spawning task (0 for an external goroutine), Other the new task.
	KindSpawn
	// KindBegin records a task starting to execute on a worker.
	KindBegin
	// KindEnd records a task completing.
	KindEnd
	// KindSteal records a deque steal that led to execution by the thief:
	// Task is the stolen task, Worker the thief. Recorded after the task
	// ran (a thief that loses the run race to an inlining toucher displaced
	// nothing), so one KindSteal is exactly one out-of-order execution. The
	// runtime counts a steal at the same moment and nowhere else: a trace of
	// a whole run holds as many KindSteal events as Stats.Steals reads. A
	// task stolen while its thief helps at a touch is recorded as a steal
	// only, not also in the touch's helped count.
	KindSteal
	// KindTouch records a touch completing: Task is the toucher (0 for an
	// external goroutine), Other the touched task, Mode how the wait was
	// satisfied, Arg the stream item index (-1 for a plain future), N the
	// number of tasks helped while waiting.
	KindTouch
	// KindYield records a stream producer publishing item Arg (Section 6.1
	// local-touch pipelines: one future thread computing many futures).
	KindYield
	// KindHelp records one task executed out of spawn order by a worker
	// helping at a touch: Task is the helped (executed) task, Job its job.
	// Like KindSteal, one event per displaced execution — so per-job trace
	// splitting attributes each help deviation to the job whose task was
	// displaced, not to the job the helping worker happened to be waiting
	// in. The touch event's N rider still summarizes how many helps the
	// wait took (it determines ModeHelped), but deviation counting uses
	// these events.
	KindHelp
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSpawn:
		return "spawn"
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindSteal:
		return "steal"
	case KindTouch:
		return "touch"
	case KindYield:
		return "yield"
	case KindHelp:
		return "help"
	default:
		return "none"
	}
}

// TouchMode classifies how a touch's wait was satisfied. Helped and Blocked
// touches are the runtime's measured deviations (together with steals): the
// toucher did not proceed straight from its previous node to the touched
// value, exactly Spoonhower et al.'s deviation condition.
type TouchMode uint8

const (
	// ModeNone is the zero value (non-touch events).
	ModeNone TouchMode = iota
	// ModeReady: the future had already completed; no wait at all.
	ModeReady
	// ModeInline: the toucher claimed and ran the future's task itself
	// (work-first inlining — the "run the future thread first" choice).
	ModeInline
	// ModeHelped: the toucher ran other tasks while the future computed
	// elsewhere, then found it done.
	ModeHelped
	// ModeBlocked: no work was available; the toucher blocked on the future.
	ModeBlocked
	// ModeExternal: the toucher was an external goroutine (no worker), which
	// always blocks; not counted as a worker deviation.
	ModeExternal
)

// String names the mode.
func (m TouchMode) String() string {
	switch m {
	case ModeReady:
		return "ready"
	case ModeInline:
		return "inline"
	case ModeHelped:
		return "helped"
	case ModeBlocked:
		return "blocked"
	case ModeExternal:
		return "external"
	default:
		return "none"
	}
}

// Event is one recorded scheduling event. Events are fixed-size and contain
// no pointers, so recording is a single struct store.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Mode qualifies KindTouch events.
	Mode TouchMode
	// Worker is the recording worker's ID, or -1 for external goroutines.
	Worker int32
	// Task identifies the task in whose context the event occurred (the
	// spawner, toucher, beginning/ending task, or stolen task). Task 0 is
	// the external context (code running outside any worker task).
	Task uint64
	// Other is the counterparty: the spawned task (KindSpawn) or the
	// touched task (KindTouch); 0 otherwise.
	Other uint64
	// Arg is the stream item index for KindYield and stream touches;
	// -1 otherwise.
	Arg int32
	// N is the number of tasks run while helping (KindTouch), or the size
	// of the displaced batch the stolen task arrived in (KindSteal). The
	// runtime's thief takes one task per visit and always writes 1; the
	// format and Reconstruct keep the general reading for traces recorded by
	// a batch-stealing scheduler, where a batch of k emits up to k KindSteal
	// events — one per displaced task that actually executed — each carrying
	// N=k.
	N int32
	// Job identifies the submitted job the event belongs to (0 = job-less
	// work such as Run roots and the external context). Spawn events carry
	// the spawned task's job (inherited from the spawner; set explicitly by
	// Submit for a job root), begin/end/steal events the executed or
	// displaced task's job, touch and yield events the job of the context
	// that recorded them. This is what lets a multi-tenant trace be split
	// into one sub-trace — and one deviation verdict — per job.
	Job uint64
	// Disc is the fork discipline the spawn used (KindSpawn only) — the
	// shared policy vocabulary, so reconstruction can attribute deviations
	// to the policy that scheduled each task.
	Disc policy.Discipline
	// Steal is the steal policy in force when the task was displaced
	// (KindSteal only), attributing each measured steal deviation to the
	// steal discipline that caused it. The runtime stamps the name of its one
	// steal rule (Runtime.StealPolicy: random-single where its workers share
	// one locality domain, hierarchical where they span several).
	Steal policy.StealPolicy
	// Cross reports whether the steal crossed an LLC-domain boundary
	// (KindSteal only): the thief and the victim sat in different
	// cache-locality domains of the runtime's topology assignment.
	Cross bool
}

// String renders the event compactly (for debugging and tests).
func (e Event) String() string {
	s := e.text()
	if e.Job != 0 {
		s += fmt.Sprintf(" [job %d]", e.Job)
	}
	return s
}

func (e Event) text() string {
	switch e.Kind {
	case KindSpawn:
		return fmt.Sprintf("w%d: task %d spawns %d (%s)", e.Worker, e.Task, e.Other, e.Disc)
	case KindTouch:
		s := fmt.Sprintf("w%d: task %d touches %d (%s)", e.Worker, e.Task, e.Other, e.Mode)
		if e.Arg >= 0 {
			s += fmt.Sprintf(" item %d", e.Arg)
		}
		return s
	case KindYield:
		return fmt.Sprintf("w%d: task %d yields item %d", e.Worker, e.Task, e.Arg)
	case KindSteal:
		s := fmt.Sprintf("w%d: steal task %d (%s", e.Worker, e.Task, e.Steal)
		if e.N > 1 {
			s += fmt.Sprintf(", batch %d", e.N)
		}
		if e.Cross {
			s += ", cross-domain"
		}
		return s + ")"
	default:
		return fmt.Sprintf("w%d: %s task %d", e.Worker, e.Kind, e.Task)
	}
}
