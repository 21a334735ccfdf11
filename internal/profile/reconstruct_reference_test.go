package profile_test

import (
	"fmt"
	"sort"

	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
)

// referenceTask accumulates everything the trace says about one task.
type referenceTask struct {
	id uint64
	// prog is the task's program-order event stream: the spawn, touch and
	// yield events recorded while executing it. A task runs on exactly one
	// worker, so its events appear in one log, in program order.
	prog []profile.Event
	// yields counts KindYield events (stream producers).
	yields int32
	// spawned reports that the task's creation was observed.
	spawned bool
}

// referenceRecon is Recon as it stood before the dense task table: three maps
// keyed by task ID where Recon has Tasks, and a task count.
type referenceRecon struct {
	profile.Recon
	TaskThread     map[uint64]dag.ThreadID
	TaskDiscipline map[uint64]dag.Discipline
	TaskJob        map[uint64]uint64
	NumTasks       int
}

// reconstructReference is Reconstruct as it stood before the dense replay: a
// *referenceTask and its program slice per task in a map, five more maps
// keyed by task ID for the replay's state, a *dag.Thread allocated per fork,
// and the unknown-spawn notes in map order. It is the oracle
// TestReconstructMatchesReference and FuzzReconstruct hold Reconstruct to.
func reconstructReference(tr *profile.Trace) (*referenceRecon, error) {
	rec := &referenceRecon{
		TaskThread:     map[uint64]dag.ThreadID{},
		TaskDiscipline: map[uint64]dag.Discipline{},
		TaskJob:        map[uint64]uint64{},
	}
	jobsSeen := map[uint64]bool{}
	tasks := map[uint64]*referenceTask{0: {id: 0, spawned: true}}
	get := func(id uint64) *referenceTask {
		t := tasks[id]
		if t == nil {
			t = &referenceTask{id: id}
			tasks[id] = t
		}
		return t
	}

	logs := append(append([][]profile.Event{}, tr.PerWorker...), tr.External)
	for _, log := range logs {
		for _, ev := range log {
			if ev.Job != 0 {
				jobsSeen[ev.Job] = true
			}
			switch ev.Kind {
			case profile.KindSpawn:
				get(ev.Other).spawned = true
				rec.TaskDiscipline[ev.Other] = ev.Disc
				if ev.Job != 0 {
					// A spawn's Job is the spawned task's job (inherited from
					// the spawner, explicit for Submit roots).
					rec.TaskJob[ev.Other] = ev.Job
				}
				if ev.Disc == dag.FutureFirst {
					rec.FutureFirstSpawns++
				} else {
					rec.ParentFirstSpawns++
					if ev.Task != 0 {
						rec.ParentFirstForks++
					}
				}
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
			case profile.KindTouch:
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
				switch ev.Mode {
				case profile.ModeInline:
					rec.InlineTouches++
				case profile.ModeReady:
					rec.ReadyTouches++
				case profile.ModeHelped:
					rec.HelpedWaits++
				case profile.ModeBlocked:
					rec.BlockedWaits++
				case profile.ModeExternal:
					rec.ExternalWaits++
				}
			case profile.KindYield:
				t := get(ev.Task)
				t.prog = append(t.prog, ev)
				t.yields++
			case profile.KindHelp:
				// One event per helped (displaced) execution, tagged with the
				// helped task's job — the touch's N rider is a summary, this
				// is the deviation count (and what per-job splitting needs:
				// the displaced job owns the deviation, not whichever job the
				// helping worker was waiting in).
				rec.HelpedTasks++
			case profile.KindSteal:
				rec.Steals++
			}
		}
	}
	rec.NumTasks = len(tasks)
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
			case profile.KindSpawn:
				threads[ev.Other] = th.Fork()
				lastFork = true
			case profile.KindYield:
				th.Step()
				lastFork = false
				promises[id] = append(promises[id], th.Promise())
			case profile.KindTouch:
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
