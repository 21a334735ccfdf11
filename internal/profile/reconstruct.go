package profile

import (
	"cmp"
	"fmt"
	"slices"

	"futurelocality/internal/dag"
)

// TaskInfo is what a reconstruction learned of one task the trace observed.
type TaskInfo struct {
	// ID is the runtime task ID (0 = the external context, the main thread).
	ID uint64
	// Thread is the task's DAG thread, or dag.NoThread when the trace never
	// showed where the task was spawned (a truncated trace).
	Thread dag.ThreadID
	// Spawned reports that the task's spawn was traced. Discipline and Job
	// are that spawn's, and zero without one.
	Spawned bool
	// Discipline is the fork discipline the spawn used — the per-spawn
	// attribution the runtime records. The
	// label is mechanical and relative to the reconstructed DAG's own fork
	// orientation: ParentFirst means the spawned task was pushed for theft
	// while the spawner continued, FutureFirst that the spawner dived into
	// it. Join2 records its pushed branch ParentFirst even though
	// the combinator as a whole realizes the future-first fork (the worker
	// runs the paper's future thread — the inlined first branch — first);
	// see runtime.Join2.
	Discipline dag.Discipline
	// Job is the submitted job the task belongs to (runtime.Submit identity,
	// recorded per event as Event.Job); 0 for job-less tasks (Run roots and
	// their descendants).
	Job uint64
}

// Recon is the reconstruction of one profiling session: the computation DAG
// the run performed, in the paper's model, plus the measured counters.
//
// The mapping follows Section 2: every runtime task (future body, stream
// producer, or the external driver, task 0 = the main thread) is a thread;
// its body is a node; each Spawn is a fork node of the spawning thread;
// each Touch is a touch node of the touching thread with a touch edge from
// the touched thread's last node; each stream yield is a node of the
// producer thread whose value is touched where the consumer Get it. Tasks
// whose futures were never touched (side-effect futures, Scope tasks,
// unrecorded TryTouch consumers) are closed by a super final node
// (Section 6.2), exactly the Definition 13 reading of a fire-and-forget
// future.
type Recon struct {
	// Graph is the reconstructed computation DAG.
	Graph *dag.Graph
	// Tasks lists every task the trace observed, the external context
	// included, sorted by ID.
	Tasks []TaskInfo
	// FutureFirstSpawns and ParentFirstSpawns count traced spawns by
	// discipline.
	FutureFirstSpawns, ParentFirstSpawns int64
	// ParentFirstForks counts the parent-first spawns a task made: the
	// forks of the computation the theorems' future-first hypothesis fails
	// at. A root spawned from outside any task (Run, Submit) forks nothing.
	ParentFirstForks int64
	// Jobs lists the distinct job IDs observed in the trace, sorted (empty
	// for a single-tenant session). Analyze checks each against its own
	// envelope — see Report.Jobs.
	Jobs []uint64
	// SuperFinal reports that un-touched threads forced a super final node.
	SuperFinal bool

	// Steals counts executed displaced tasks — one per KindSteal event.
	Steals int64
	// InlineTouches, ReadyTouches, HelpedWaits, BlockedWaits, ExternalWaits
	// count touches by wait mode (stream Gets included).
	InlineTouches, ReadyTouches, HelpedWaits, BlockedWaits, ExternalWaits int64
	// HelpedTasks is the total number of tasks run while helping at touches.
	HelpedTasks int64
	// ExtraTouches counts touch events against already-closed threads (e.g.
	// a Scope wait after an explicit touch); the model allows one touch per
	// future, so these add no edge.
	ExtraTouches int64
	// Incomplete lists anomalies of a truncated trace (events referencing
	// tasks or yields the trace never observed), in replay order and then
	// task-ID order, at most 32. Empty for a session that covered the whole
	// computation.
	Incomplete []string
}

// measuredDeviations is the runtime's observable deviation count: steals
// plus tasks run out-of-order while helping plus blocked touches — each is
// a point where a worker's execution order departed from the sequential
// one, the runtime analogue of Section 4's deviations.
func (r *Recon) measuredDeviations() int64 {
	return r.Steals + r.HelpedTasks + r.BlockedWaits
}

// Reconstruct replays tr into a dag.Builder and returns the computation DAG
// of the traced run together with the measured counters. It fails only on
// traces whose causality cannot be replayed (a cyclic or corrupt log);
// merely truncated traces degrade to Incomplete notes.
func Reconstruct(tr *Trace) (*Recon, error) {
	return reconstruct(tr.logs())
}

// step is one entry of a task's program: a spawn of task other, a touch of
// task other (of its item arg, or of the plain future for arg < 0), or a
// yield. other is a dense task index.
type step struct {
	kind  Kind
	other int32
	arg   int32
}

// Per-task state bits.
const (
	seen      uint8 = 1 << iota // the trace observed the task (a touch target alone is not)
	spawned                     // its spawn was traced
	replaying                   // its replay is on the stack
	replayed                    // its replay finished
	closed                      // its thread's value has been touched
)

// task is one task's replay state, at its dense index.
type task struct {
	id     uint64
	job    uint64      // the job of its last traced spawn that carried one
	thread *dag.Thread // nil until a replayed fork creates it
	// end is, after layout, one past the task's last step; its first step is
	// where the previous index's steps end. Pass 1 counts its steps here.
	end     int32
	yields  int32 // its yield steps
	promise int32 // where its promises begin in promises
	disc    dag.Discipline
	bits    uint8
}

// replayer holds one reconstruction's dense tables: tasks at the index idx
// assigns them in order of first sight, every task's steps in one flat array
// in program order, and the promises of the tasks that yield.
type replayer struct {
	rec      *Recon
	idx      map[uint64]int32
	tasks    []task
	steps    []step
	promises []*dag.Promise
}

// index returns id's dense index, adding the task on first sight, and sets
// bits in its state.
func (r *replayer) index(id uint64, bits uint8) int32 {
	i, ok := r.idx[id]
	if !ok {
		i = int32(len(r.tasks))
		r.idx[id] = i
		r.tasks = append(r.tasks, task{id: id})
	}
	r.tasks[i].bits |= bits
	return i
}

// prog returns task i's steps.
func (r *replayer) prog(i int32) []step {
	first := int32(0)
	if i > 0 {
		first = r.tasks[i-1].end
	}
	return r.steps[first:r.tasks[i].end]
}

// note records an anomaly of a truncated trace. A truncated trace can shed
// thousands, so only the first 32 are kept, and only those are formatted.
func (r *replayer) note(format string, nums ...uint64) {
	if len(r.rec.Incomplete) >= 32 {
		return
	}
	args := make([]any, len(nums))
	for i, n := range nums {
		args[i] = n
	}
	r.rec.Incomplete = append(r.rec.Incomplete, fmt.Sprintf(format, args...))
}

// reconstruct is Reconstruct over runs of events: every run in program order,
// and the runs of one log in log order, logs in trace order. A task runs on
// exactly one worker, so its events then appear in program order — all the
// replay relies on.
func reconstruct(runs [][]Event) (*Recon, error) {
	rec := &Recon{}
	// The counters, the jobs, and the sizes of the tables below.
	var spawns, touches, yields int
	var lastJob uint64
	for _, run := range runs {
		for i := range run {
			ev := &run[i]
			if ev.Job != 0 && ev.Job != lastJob {
				rec.Jobs = append(rec.Jobs, ev.Job)
				lastJob = ev.Job
			}
			switch ev.Kind {
			case KindSpawn:
				spawns++
				if ev.Disc == dag.FutureFirst {
					rec.FutureFirstSpawns++
				} else {
					rec.ParentFirstSpawns++
					if ev.Task != 0 {
						rec.ParentFirstForks++
					}
				}
			case KindTouch:
				touches++
				switch ev.Mode {
				case ModeInline:
					rec.InlineTouches++
				case ModeReady:
					rec.ReadyTouches++
				case ModeHelped:
					rec.HelpedWaits++
				case ModeBlocked:
					rec.BlockedWaits++
				case ModeExternal:
					rec.ExternalWaits++
				}
			case KindYield:
				yields++
			case KindHelp:
				// One event per helped (displaced) execution, tagged with the
				// helped task's job — the touch's N rider is a summary, this
				// is the deviation count (and what per-job splitting needs:
				// the displaced job owns the deviation, not whichever job the
				// helping worker was waiting in).
				rec.HelpedTasks++
			case KindSteal:
				rec.Steals++
			}
		}
	}
	slices.Sort(rec.Jobs)
	rec.Jobs = slices.Compact(rec.Jobs)

	// Pass 1: index the tasks and count each one's steps. A complete trace
	// spawns every task but the external context once.
	r := &replayer{rec: rec, idx: make(map[uint64]int32, spawns+1), tasks: make([]task, 0, spawns+1)}
	r.index(0, seen)
	for _, run := range runs {
		for i := range run {
			ev := &run[i]
			switch ev.Kind {
			case KindSpawn:
				// A spawn's Job is the spawned task's job (inherited from the
				// spawner, explicit for Submit roots).
				o := &r.tasks[r.index(ev.Other, seen|spawned)]
				o.disc = ev.Disc
				if ev.Job != 0 {
					o.job = ev.Job
				}
				r.tasks[r.index(ev.Task, seen)].end++
			case KindTouch:
				r.index(ev.Other, 0)
				r.tasks[r.index(ev.Task, seen)].end++
			case KindYield:
				t := &r.tasks[r.index(ev.Task, seen)]
				t.end++
				t.yields++
			}
		}
	}
	// Pass 2: lay the steps out task after task, each task's in program
	// order (a counting sort on the dense index).
	var at, promise int32
	for i := range r.tasks {
		t := &r.tasks[i]
		t.end, at = at, at+t.end
		t.promise, promise = promise, promise+t.yields
	}
	r.steps = make([]step, at)
	r.promises = make([]*dag.Promise, promise)
	for _, run := range runs {
		for i := range run {
			ev := &run[i]
			s := step{kind: ev.Kind, other: -1, arg: ev.Arg}
			switch ev.Kind {
			case KindSpawn, KindTouch:
				s.other = r.idx[ev.Other]
			case KindYield: // names no other task
			default:
				continue
			}
			t := &r.tasks[r.idx[ev.Task]]
			r.steps[t.end] = s
			t.end++
		}
	}

	// Replay into a builder. Threads are created by their parent's fork and
	// populated lazily: a task is fully replayed before its first touch (the
	// trace records touches after completion, so all of the touched task's
	// own events are causally — and per-log — already present). A replayed
	// task has one body node, a fork node and at most one continuation node
	// per spawn, a node per touch and per yield; the graph may add a super
	// final node.
	b := dag.NewBuilder()
	b.Reserve(min(len(r.tasks), spawns+1)+2*spawns+touches+yields+1, spawns+1)
	r.tasks[0].thread = b.Main()
	if err := r.replay(0); err != nil {
		return nil, err
	}
	// Tasks nobody touched (side-effect futures, unconsumed streams): their
	// threads exist (their parents replayed) but were never visited. Replay
	// them in task-ID order until the fixpoint, a round at a time — each
	// replay can fork new threads, which wait for the next round.
	order := make([]int32, len(r.tasks))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(r.tasks[a].id, r.tasks[b].id) })
	var pending []int32
	for {
		pending = pending[:0]
		for _, i := range order {
			if t := &r.tasks[i]; t.thread != nil && t.bits&replayed == 0 {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			break
		}
		for _, i := range pending {
			if err := r.replay(i); err != nil {
				return nil, err
			}
		}
	}

	// The task table, in ID order. Open threads (never touched) are closed
	// by a super final node — the Section 6.2 reading of fire-and-forget
	// futures.
	rec.Tasks = make([]TaskInfo, 0, len(r.tasks))
	for _, i := range order {
		t := &r.tasks[i]
		if t.bits&seen == 0 {
			continue
		}
		info := TaskInfo{ID: t.id, Thread: dag.NoThread, Spawned: t.bits&spawned != 0, Discipline: t.disc, Job: t.job}
		if t.thread == nil {
			r.note("task %d traced but its spawn point is unknown", t.id)
		} else {
			info.Thread = t.thread.ID()
			rec.SuperFinal = rec.SuperFinal || t.id != 0 && t.bits&closed == 0
		}
		rec.Tasks = append(rec.Tasks, info)
	}
	var g *dag.Graph
	var err error
	if rec.SuperFinal {
		g, err = b.BuildSuperFinal()
	} else {
		g, err = b.Build()
	}
	if err != nil {
		return nil, fmt.Errorf("profile: reconstructed DAG invalid: %w", err)
	}
	rec.Graph = g
	return rec, nil
}

// replay replays task i's program onto its thread, replaying first every
// task it touches.
func (r *replayer) replay(i int32) error {
	t := &r.tasks[i]
	if t.bits&replayed != 0 {
		return nil
	}
	if t.bits&replaying != 0 {
		return fmt.Errorf("profile: cyclic touch causality at task %d (corrupt trace?)", t.id)
	}
	t.bits |= replaying
	th := t.thread
	th.Step() // the task's body node
	// lastFork tracks whether th's most recent node is a fork. The model
	// (Section 2.1) forbids a fork child being a touch node and a touch
	// edge leaving a fork, so the replay inserts the implicit
	// continuation/return nodes real code elides (`f := Spawn(..);
	// return f.Touch(w)` has unit work between the two in the model).
	lastFork := false
	promise := t.promise
	for _, s := range r.prog(i) {
		switch s.kind {
		case KindSpawn:
			r.tasks[s.other].thread = th.Fork()
			lastFork = true
		case KindYield:
			th.Step()
			lastFork = false
			r.promises[promise] = th.Promise()
			promise++
		case KindTouch:
			u := &r.tasks[s.other]
			if u.thread == nil {
				r.note("touch of task %d whose spawn was not traced", u.id)
				continue
			}
			if err := r.replay(s.other); err != nil {
				return err
			}
			if lastFork {
				th.Step() // the fork's continuation child must not be a touch
				lastFork = false
			}
			// A stream item touch (arg >= 0) is the touch of the arg-th
			// future the producer thread computed. The touch of the last item
			// closes the thread (its future parent is the thread's last
			// node); earlier items go through promises.
			switch {
			case s.arg < 0 && u.bits&closed != 0:
				r.rec.ExtraTouches++
			case s.arg < 0, s.arg == u.yields-1 && u.bits&closed == 0:
				th.Touch(u.thread)
				u.bits |= closed
			case s.arg < u.yields:
				th.TouchPromise(r.promises[u.promise+s.arg], dag.NoBlock)
			default:
				r.note("touch of item %d of task %d, but only %d yields traced", uint64(s.arg), u.id, uint64(u.yields))
			}
		}
	}
	if lastFork {
		th.Step() // a thread's value edge must not leave a fork node
	}
	t.bits = t.bits&^replaying | replayed
	return nil
}
