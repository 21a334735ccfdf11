package runtime

// Live execution profiling: the runtime records scheduling events (spawn,
// steal, task begin/end, touch with its wait mode, stream yields) into a
// profile.Recorder so that internal/profile can reconstruct the computation
// DAG the run actually performed and compare measured deviations against
// the paper's bounds and the simulator's prediction for the same DAG.
//
// Overhead discipline:
//
//   - disabled (the default): every hook is one atomic pointer load, one
//     plain load and two branches (Runtime.recording), taken before the
//     event — and the job ID it carries — is even built. A worker's Spawn
//     or Produce pays no shared atomic increment for the task ID: the ID
//     comes from the worker's reserved block (W.nextTaskID), one shared
//     increment per 256 spawns. External spawns and job roots take one
//     increment each.
//   - enabled: one event store plus one atomic length store per event, into
//     a lock-free single-writer per-worker chunk log (see profile.Recorder).
//
// Known trace gaps, tolerated by the reconstructor: external (nil-worker)
// calls — including everything an external FutureFirst dive executes — are
// attributed to the external context, and events in flight while
// StopProfile swaps the session out may be dropped.

import (
	"errors"

	"futurelocality/internal/profile"
)

// recording reports whether any event sink — a profiling session or the
// flight recorder — is on: one plain load, one atomic load, two branches.
// The scheduler's hooks ask it before they build an Event, so with both
// sinks off a hook costs exactly that and never dereferences the task's job.
func (rt *Runtime) recording() bool {
	return rt.flight != nil || rt.prof.Load() != nil
}

// record appends ev to the active profiling session, if any, and to the
// flight recorder, if the runtime has one. Only this worker writes to its
// log and its ring, so both sinks are lock-free on the hot path.
func (w *W) record(ev profile.Event) {
	if rec := w.rt.prof.Load(); rec != nil {
		rec.Record(w.id, ev)
	}
	if fl := w.rt.flight; fl != nil {
		fl.Record(w.id, ev)
	}
}

// recordTouch records a completed touch of task other from w's context,
// attributed to the job of the toucher (jobs are isolation domains: a job's
// futures are touched by its own computation, so toucher and touched agree;
// the external waiter's touch of a job root is recorded separately with the
// root's job).
func (w *W) recordTouch(other uint64, mode profile.TouchMode, helps, item int32) {
	if !w.rt.recording() {
		return
	}
	w.record(profile.Event{Kind: profile.KindTouch, Mode: mode,
		Task: w.cur, Other: other, Arg: item, N: helps, Job: w.jobID()})
}

// recordExternalTouch records a touch of task t (item ≥ 0: of that stream
// item) made by a goroutine outside the worker pool, attributed to t's job.
func (rt *Runtime) recordExternalTouch(t *task, mode profile.TouchMode, item int32) {
	if rt.recording() {
		rt.recordExternal(profile.Event{Kind: profile.KindTouch, Mode: mode,
			Other: t.id, Arg: item, Job: t.jobID()})
	}
}

// recordExternal appends ev on behalf of a goroutine outside the worker
// pool (serialized inside the recorder and the flight ring).
func (rt *Runtime) recordExternal(ev profile.Event) {
	if rec := rt.prof.Load(); rec != nil {
		rec.RecordExternal(ev)
	}
	if fl := rt.flight; fl != nil {
		fl.RecordExternal(ev)
	}
}

// recordSpawn records the creation of task t from the context of w (nil
// or foreign w = external context, mirroring push's routing), tagged with
// the fork discipline the spawn used so reconstruction can attribute
// deviations to policy choice, and with the spawned task's job (0 for
// job-less work) so per-job trace splitting sees every task of a job —
// including the root, whose spawn is recorded externally by Submit.
func (rt *Runtime) recordSpawn(w *W, t *task, d Discipline) {
	if !rt.recording() {
		return
	}
	ev := profile.Event{Kind: profile.KindSpawn, Other: t.id, Arg: -1, Disc: d, Job: t.jobID()}
	if w != nil && w.rt == rt {
		ev.Task = w.cur
		w.record(ev)
	} else {
		rt.recordExternal(ev)
	}
}

// ErrProfileActive reports a StartProfile while a session is running.
var ErrProfileActive = errors.New("runtime: profiling already active")

// ErrNoProfile reports a ProfileReport with no active session.
var ErrNoProfile = errors.New("runtime: no active profiling session")

// StartProfile begins recording scheduling events. It is safe to call while
// workers are running; tasks spawned before the call appear in the trace
// only through events they record afterwards, so for a complete DAG start
// profiling before submitting the workload. Returns ErrProfileActive if a
// session is already running.
func (rt *Runtime) StartProfile() error {
	rec := profile.NewRecorder(len(rt.workers))
	if !rt.prof.CompareAndSwap(nil, rec) {
		return ErrProfileActive
	}
	return nil
}

// StopProfile ends the active session and returns its trace, or nil when no
// session is active. Safe to call while workers are running; events raced
// past the stop are dropped (the reconstructor tolerates truncation).
func (rt *Runtime) StopProfile() *profile.Trace {
	rec := rt.prof.Swap(nil)
	if rec == nil {
		return nil
	}
	return rec.Collect()
}

// Profiling reports whether a session is active.
func (rt *Runtime) Profiling() bool { return rt.prof.Load() != nil }

// ProfileReport stops the active session and runs the full analysis:
// reconstruct the DAG, classify it, count measured deviations, and replay
// the DAG through the simulator for the predicted numbers. opts.P defaults
// to the runtime's worker count. Returns ErrNoProfile when no session is
// active.
func (rt *Runtime) ProfileReport(opts profile.Options) (*profile.Report, error) {
	tr := rt.StopProfile()
	if tr == nil {
		return nil, ErrNoProfile
	}
	if opts.P == 0 {
		opts.P = len(rt.workers)
	}
	return profile.Analyze(tr, opts)
}
