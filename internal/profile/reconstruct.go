package profile

import (
	"fmt"
	"sort"

	"futurelocality/internal/dag"
	"futurelocality/internal/policy"
)

// taskRec accumulates everything the trace says about one task.
type taskRec struct {
	id uint64
	// prog is the task's program-order event stream: the spawn, touch and
	// yield events recorded while executing it. A task runs on exactly one
	// worker, so its events appear in one log, in program order.
	prog []Event
	// yields counts KindYield events (stream producers).
	yields int32
	// spawned reports that the task's creation was observed.
	spawned bool
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
	// TaskThread maps runtime task IDs to DAG threads (0 = main).
	TaskThread map[uint64]dag.ThreadID
	// TaskDiscipline maps each task whose spawn was traced to the fork
	// discipline the spawn used (the shared policy vocabulary) — the
	// per-spawn policy attribution the runtime records. The external
	// context (task 0) has no entry. The label is mechanical and relative
	// to the reconstructed DAG's own fork orientation: ParentFirst means
	// the spawned task was pushed for theft while the spawner continued,
	// FutureFirst that the spawner dived into it. Join2/JoinN record their
	// pushed branches ParentFirst even though the combinator as a whole
	// realizes the future-first fork (the worker runs the paper's future
	// thread — the inlined first branch — first); see runtime.Join2.
	TaskDiscipline map[uint64]policy.Discipline
	// FutureFirstSpawns and ParentFirstSpawns count traced spawns by
	// discipline (TaskDiscipline aggregated).
	FutureFirstSpawns, ParentFirstSpawns int64
	// TaskJob maps each task whose spawn was traced to the submitted job it
	// belongs to (runtime.Submit identity, recorded per event as Event.Job).
	// Job-less tasks (Run roots and their descendants) have no entry.
	TaskJob map[uint64]uint64
	// Jobs lists the distinct job IDs observed in the trace, sorted (empty
	// for a single-tenant session). Each can be split out with SplitJobs and
	// checked against its own envelope — see Report.Jobs.
	Jobs []uint64
	// Tasks is the number of tasks observed (including the external context).
	Tasks int
	// SuperFinal reports that un-touched threads forced a super final node.
	SuperFinal bool

	// Steals counts executed displaced tasks — one per KindSteal event.
	Steals int64
	// StealsByPolicy splits Steals by the steal policy that displaced the
	// task (a single run records one policy; merged traces may record
	// several). Empty when no steals were traced.
	StealsByPolicy map[policy.StealPolicy]int64
	// IntraDomainSteals and CrossDomainSteals split Steals by cache
	// locality: whether the displacing visit crossed an LLC-domain boundary
	// of the runtime's topology assignment (Event.Cross). On a single-domain
	// (flat) topology every steal is intra-domain.
	IntraDomainSteals, CrossDomainSteals int64
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
	// tasks or yields the trace never observed). Empty for a session that
	// covered the whole computation.
	Incomplete []string
}

// MeasuredDeviations is the runtime's observable deviation count: steals
// plus tasks run out-of-order while helping plus blocked touches — each is
// a point where a worker's execution order departed from the sequential
// one, the runtime analogue of Section 4's deviations.
func (r *Recon) MeasuredDeviations() int64 {
	return r.Steals + r.HelpedTasks + r.BlockedWaits
}

// Reconstruct replays tr into a dag.Builder and returns the computation DAG
// of the traced run together with the measured counters. It fails only on
// traces whose causality cannot be replayed (a cyclic or corrupt log);
// merely truncated traces degrade to Incomplete notes.
func Reconstruct(tr *Trace) (*Recon, error) {
	rec := &Recon{
		TaskThread:     map[uint64]dag.ThreadID{},
		TaskDiscipline: map[uint64]policy.Discipline{},
		TaskJob:        map[uint64]uint64{},
		StealsByPolicy: map[policy.StealPolicy]int64{},
	}
	jobsSeen := map[uint64]bool{}
	tasks := map[uint64]*taskRec{0: {id: 0, spawned: true}}
	get := func(id uint64) *taskRec {
		t := tasks[id]
		if t == nil {
			t = &taskRec{id: id}
			tasks[id] = t
		}
		return t
	}

	logs := append(append([][]Event{}, tr.PerWorker...), tr.External)
	for _, log := range logs {
		for _, ev := range log {
			if ev.Job != 0 {
				jobsSeen[ev.Job] = true
			}
			switch ev.Kind {
			case KindSpawn:
				get(ev.Other).spawned = true
				rec.TaskDiscipline[ev.Other] = ev.Disc
				if ev.Job != 0 {
					// A spawn's Job is the spawned task's job (inherited from
					// the spawner, explicit for Submit roots).
					rec.TaskJob[ev.Other] = ev.Job
				}
				if ev.Disc == policy.FutureFirst {
					rec.FutureFirstSpawns++
				} else {
					rec.ParentFirstSpawns++
				}
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
			case KindTouch:
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
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
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
				t.yields++
			case KindHelp:
				// One event per helped (displaced) execution, tagged with the
				// helped task's job — the touch's N rider is a summary, this
				// is the deviation count (and what per-job splitting needs:
				// the displaced job owns the deviation, not whichever job the
				// helping worker was waiting in).
				rec.HelpedTasks++
			case KindSteal:
				rec.Steals++
				rec.StealsByPolicy[ev.Steal]++
				if ev.Cross {
					rec.CrossDomainSteals++
				} else {
					rec.IntraDomainSteals++
				}
			}
		}
	}
	rec.Tasks = len(tasks)
	for id := range jobsSeen {
		rec.Jobs = append(rec.Jobs, id)
	}
	sort.Slice(rec.Jobs, func(i, j int) bool { return rec.Jobs[i] < rec.Jobs[j] })

	// Replay into a builder. Threads are created by their parent's fork and
	// populated lazily: a task is fully replayed before its first touch (the
	// trace records touches after completion, so all of the touched task's
	// own events are causally — and per-log — already present).
	b := dag.NewBuilder()
	threads := map[uint64]*dag.Thread{0: b.Main()}
	promises := map[uint64][]*dag.Promise{}
	closed := map[uint64]bool{}
	replayed := map[uint64]bool{}
	replaying := map[uint64]bool{}
	note := func(format string, args ...any) {
		if len(rec.Incomplete) < 32 { // cap: a truncated trace can shed thousands
			rec.Incomplete = append(rec.Incomplete, fmt.Sprintf(format, args...))
		}
	}

	var replay func(id uint64) error
	replay = func(id uint64) error {
		if replayed[id] {
			return nil
		}
		if replaying[id] {
			return fmt.Errorf("profile: cyclic touch causality at task %d (corrupt trace?)", id)
		}
		replaying[id] = true
		th := threads[id]
		th.Step() // the task's body node
		// lastFork tracks whether th's most recent node is a fork. The model
		// (Section 2.1) forbids a fork child being a touch node and a touch
		// edge leaving a fork, so the replay inserts the implicit
		// continuation/return nodes real code elides (`f := Spawn(..);
		// return f.Touch(w)` has unit work between the two in the model).
		lastFork := false
		for _, ev := range tasks[id].prog {
			switch ev.Kind {
			case KindSpawn:
				threads[ev.Other] = th.Fork()
				lastFork = true
			case KindYield:
				th.Step()
				lastFork = false
				promises[id] = append(promises[id], th.Promise())
			case KindTouch:
				tgt := ev.Other
				if threads[tgt] == nil {
					note("touch of task %d whose spawn was not traced", tgt)
					continue
				}
				if err := replay(tgt); err != nil {
					return err
				}
				if lastFork {
					th.Step() // the fork's continuation child must not be a touch
					lastFork = false
				}
				if ev.Arg >= 0 {
					// Stream item touch: the touch of the Arg-th future the
					// producer thread computed. The touch of the last item
					// closes the thread (its future parent is the thread's
					// last node); earlier items go through promises.
					if int(ev.Arg) == int(tasks[tgt].yields)-1 && !closed[tgt] {
						th.Touch(threads[tgt])
						closed[tgt] = true
					} else if int(ev.Arg) < len(promises[tgt]) {
						th.TouchPromise(promises[tgt][ev.Arg], dag.NoBlock)
					} else {
						note("touch of item %d of task %d, but only %d yields traced",
							ev.Arg, tgt, tasks[tgt].yields)
					}
				} else {
					if closed[tgt] {
						rec.ExtraTouches++
						continue
					}
					th.Touch(threads[tgt])
					closed[tgt] = true
				}
			}
		}
		if lastFork {
			th.Step() // a thread's value edge must not leave a fork node
		}
		delete(replaying, id)
		replayed[id] = true
		return nil
	}

	if err := replay(0); err != nil {
		return nil, err
	}
	// Tasks nobody touched (side-effect futures, unconsumed streams): their
	// threads exist (their parents replayed) but were never visited. Replay
	// them in task-ID order until the fixpoint — each replay can fork new
	// threads.
	for {
		var pending []uint64
		for id := range threads {
			if !replayed[id] {
				pending = append(pending, id)
			}
		}
		if len(pending) == 0 {
			break
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		for _, id := range pending {
			if err := replay(id); err != nil {
				return nil, err
			}
		}
	}
	for id := range tasks {
		if threads[id] == nil {
			note("task %d traced but its spawn point is unknown", id)
		}
	}

	// Open threads (never touched) are closed by a super final node — the
	// Section 6.2 reading of fire-and-forget futures.
	anyOpen := false
	for id := range threads {
		if id != 0 && !closed[id] {
			anyOpen = true
		}
	}
	var g *dag.Graph
	var err error
	if anyOpen {
		rec.SuperFinal = true
		g, err = b.BuildSuperFinal()
	} else {
		g, err = b.Build()
	}
	if err != nil {
		return nil, fmt.Errorf("profile: reconstructed DAG invalid: %w", err)
	}
	rec.Graph = g
	for id, th := range threads {
		rec.TaskThread[id] = th.ID()
	}
	return rec, nil
}
