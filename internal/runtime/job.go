package runtime

// The job-server layer: the runtime as a multi-tenant service. Run executes
// one root computation and blocks its caller; Submit accepts a root
// computation as a *job* — non-blocking, identified, admission-controlled —
// so many independent computations share the worker pool concurrently, the
// regime the ROADMAP's "heavy traffic" north star describes. Every task a
// job's computation spawns inherits the job's identity (threaded through the
// task struct and into profiler events as Event.Job), so a job's wall
// latency and — via internal/profile's per-job DAG splitting — its tasks,
// steals, touches and own deviation count against its own P·T∞² envelope
// remain attributable even with many DAGs in flight at once.
//
// Cost discipline (see DESIGN.md, "serve path anatomy"): the steady-state
// Submit allocates nothing — the root future and the job state live in one
// pooled composite (jobRoot) recycled through one freelist, admission is a
// CAS on the in-flight word (no channel, no lock, no table of jobs), and the
// handle returned to the caller is a value. A Wait allocates nothing either,
// whether it finds the job done or blocks: a blocked waiter sleeps on a slot
// it borrows from a pool, as any external toucher does. The runtime is one
// admission plane; a host that wants one per LLC domain builds a shard.Pool
// of runtimes, which is what the pool is for. A spawn *inside* a job pays
// exactly the non-job spawn path plus one pointer copy (the inherited job
// tag) and a liveness reference drawn from the worker's block; its tasks are
// counted in the worker's pending table like any, and their deferred
// releases reach the job in the worker's batched publication. A job-less Run
// is unchanged.
//
// Recycling safety: a pooled root may only be reused once nothing can reach
// it — not the handle, not the root task, not any still-pending task of the
// job (a job may legally abandon spawned futures that execute after the
// root returns). jobState.refs counts those references — never fewer: a
// worker reserves them in blocks and returns the rest, with the releases it
// deferred, when it publishes — and the release that brings it to zero
// recycles. Handles are generation-checked (jobState.gen) so a
// stale copy of an already-consumed handle fails fast with ErrDoubleTouch
// instead of touching the pool's next tenant. Job IDs themselves are never
// recycled — they stay dense and monotone from jobSeq — so profiler
// attribution (Event.Job, the per-job reports) needs no generation bits in
// the ID.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"futurelocality/internal/telemetry"
)

// ErrSaturated reports a Submit rejected by admission control: the runtime
// already has WithMaxInFlight jobs in flight. Callers shed load (the
// fail-fast server discipline) or retry once a job of theirs has finished.
var ErrSaturated = errors.New("runtime: job server saturated (max in-flight jobs reached)")

// jobState is the runtime-side record of one submitted job: identity, the
// root task it hangs off, wall-clock capture and the liveness refcount that
// gates recycling. It keeps no scheduler counts: those go to the executing
// worker's telemetry row, and a profiled trace attributes them per job
// through Event.Job. The job's handle is the only way to it; once the handle
// consumes the result the latency survives in the handle (captured at consume
// time), because the struct itself returns to the freelist.
type jobState struct {
	// gen is the handle-validity generation: bumped once each time the
	// pooled root is recycled, so a stale Job handle copy detects reuse
	// instead of consuming the next tenant's future.
	gen atomic.Uint64
	// refs counts liveness references: the root task and the handle (2 at
	// launch) plus one per still-pending task spawned by the job's
	// computation, plus the unused rest of every worker's block and the
	// releases workers have deferred (W.refsHeld, W.refsDropped). The release
	// that drops it to zero recycles the root composite into a freelist.
	refs atomic.Int64
	// id is atomic only because a stale reader (an external toucher holding
	// a job future across the job's retirement) may race a recycle: it then
	// reads the old or the new ID, never a torn one.
	id   atomic.Uint64
	root uint64
	rt   *Runtime
	// owner points back to the jobRoot composite, pre-erased to the pooling
	// interface so the release path never converts (or allocates). It is nil
	// only in a runtime's job 0 (isJob).
	owner poolableRoot
	// submitted is the Submit timestamp (immutable while the job is live).
	submitted time.Time
	// queueWaitNs is the submit→first-execution delay of the root task,
	// published once by the worker that begins it (0 while queued).
	queueWaitNs atomic.Int64
	// latencyNs is the submit→completion wall latency, published exactly
	// once by finish (0 while in flight).
	latencyNs atomic.Int64
}

// isJob reports whether js is a submitted job rather than its runtime's job
// 0, which nothing refcounts. One plain load of a field that never changes.
func (js *jobState) isJob() bool { return js.owner != nil }

// poolableRoot is the type-erased face of jobRoot[T] the recycling path
// sees: scrub yourself for the next tenant.
type poolableRoot interface{ prepareForReuse() }

// jobRoot is the pooled composite of one submitted job: the root future and
// the job state in a single allocation. On a freelist hit, a Submit
// allocates nothing at all.
type jobRoot[T any] struct {
	fut Future[T]
	js  jobState
}

// newJobRoot allocates a fresh composite (the freelist-miss path) with the
// invariant fields — the runtime pointer, the root's job tag, the owner
// back-pointer — wired once for the struct's whole pooled lifetime.
func newJobRoot[T any](rt *Runtime) *jobRoot[T] {
	r := &jobRoot[T]{}
	r.fut.job = &r.js
	r.js.rt = rt
	r.js.owner = r
	return r
}

// prepareForReuse scrubs the composite for its next tenant: the status word
// goes back to ID 0, created and untouched, and the result, the body (or the
// panic value in its place) and the waiter word drop their references so the
// pool never pins user data. The invariant fields (rt, job, owner) stay
// wired; identity fields are assigned fresh at the next launch.
func (r *jobRoot[T]) prepareForReuse() {
	f := &r.fut
	var zero T
	f.body = nil
	f.result = zero
	f.waiter.Store(nil)
	f.status.Store(0)
	js := &r.js
	js.root = 0
	js.queueWaitNs.Store(0)
	js.latencyNs.Store(0)
}

// release drops n liveness references; the last one retires the composite:
// bump the generation (stale handles fail fast from here on), scrub, and
// recycle — into the releasing worker's local stash when there is one
// (flushed to the freelist in one lock visit when full), else straight onto
// the freelist.
func (js *jobState) release(w *W, n int64) {
	refs := js.refs.Add(-n)
	checkRefs(js, refs)
	if refs != 0 {
		return
	}
	js.gen.Add(1)
	js.owner.prepareForReuse()
	rt := js.rt
	if w != nil && w.rt == rt {
		w.jobFree = append(w.jobFree, js.owner)
		if len(w.jobFree) == cap(w.jobFree) {
			rt.recycle(w.jobFree)
			clear(w.jobFree)
			w.jobFree = w.jobFree[:0]
		}
		return
	}
	rt.recycle([]poolableRoot{js.owner})
}

// recycle puts scrubbed roots on the freelist in one lock acquisition
// (overflow beyond rootFreelistCap is dropped to the garbage collector).
func (rt *Runtime) recycle(roots []poolableRoot) {
	rt.freeMu.Lock()
	n := min(cap(rt.free)-len(rt.free), len(roots))
	rt.free = append(rt.free, roots[:n]...)
	rt.freeMu.Unlock()
}

// finish publishes the job's completion: wall latency first, then the
// in-flight decrement that is also the admission's return.
// Called exactly once, by the root task's completion path (normal,
// panicking, or shutdown-cancelled), and ordered before the root future's
// completion is published (task.retire) — so a waiter that has observed
// Done sees the final latency and a freed slot.
func (js *jobState) finish() {
	lat := int64(time.Since(js.submitted))
	js.latencyNs.Store(lat)
	rt := js.rt
	// Job-rate telemetry: the submit→done latency histogram, the queue-wait
	// histogram (only for jobs whose root actually began — a shutdown-
	// cancelled job never published a queue wait), and the completion
	// counter. All completion paths funnel through here exactly once.
	rt.latencyHist.Observe(lat)
	if qw := js.queueWaitNs.Load(); qw > 0 {
		rt.queueWaitHist.Observe(qw)
	}
	rt.teleExt.Inc(telemetry.CJobsCompleted)
	checkInflight(rt, rt.inflight.Add(-1))
}

// Job is the handle to one submitted root computation: a typed future of the
// job's result plus the job's identity and wall-latency capture. Obtain one
// from Submit or SubmitAll; consume the result exactly once with
// Wait or WaitErr (the single-touch discipline applies to the job's root
// future like any other).
//
// The handle is a value: the consuming call captures the job's latency into
// the handle before the runtime recycles the underlying structures, so ID and
// Latency keep answering after the consume. Treat a copied handle like a
// copied single-touch future — exactly one copy may consume (a stale copy's
// Wait fails with ErrDoubleTouch), and copies must not race the consume from
// multiple goroutines.
type Job[T any] struct {
	f  *Future[T]
	js *jobState
	// id is the handle's own copy of the job identity (it outlives the
	// pooled jobState); gen is the jobState generation at launch, the
	// staleness check.
	id  uint64
	gen uint64
	// latency is the submit→completion time, captured by the consuming call;
	// consumed marks this handle copy as spent.
	latency  time.Duration
	consumed bool
}

// ID returns the job's runtime-assigned identity — the Event.Job value its
// profiled events carry.
func (j *Job[T]) ID() uint64 { return j.id }

// stale reports that the underlying root was consumed through another copy
// of this handle and has been recycled — this copy must not touch it.
func (j *Job[T]) stale() bool {
	return j.js == nil || j.js.gen.Load() != j.gen
}

// settle finalizes a successful consume: capture the job's latency into the
// handle (it survives the recycle) and drop the handle's liveness reference,
// which lets the pooled root be reused.
func (j *Job[T]) settle() {
	if j.consumed {
		return
	}
	j.consumed = true
	j.latency = time.Duration(j.js.latencyNs.Load())
	j.js.release(nil, 1)
}

// isDoubleTouch reports whether a recovered panic value is the
// ErrDoubleTouch sentinel (a loser of the touch race — it did not consume).
func isDoubleTouch(r any) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, ErrDoubleTouch)
}

// Wait blocks until the job completes and returns its result, consuming it
// (a second Wait/WaitErr panics with ErrDoubleTouch). If the job's root task
// panicked Wait re-panics with the original value; if the runtime shut down
// before the job ran, Wait panics with ErrClosed — it never hangs on a
// never-completed future.
func (j *Job[T]) Wait() T {
	if j.consumed || j.stale() {
		panic(ErrDoubleTouch)
	}
	defer func() {
		if r := recover(); r != nil {
			if !isDoubleTouch(r) {
				// The touch was spent (panic or cancellation surfaced through
				// it): settle so the latency survives and the root recycles.
				j.settle()
			}
			panic(r)
		}
	}()
	v := j.f.Touch(nil)
	j.settle()
	return v
}

// WaitErr is Wait with an error surface: a root-task panic is returned as a
// *PanicError, a shutdown cancellation as ErrClosed, a second consume as
// ErrDoubleTouch.
func (j *Job[T]) WaitErr() (T, error) {
	if j.consumed || j.stale() {
		var zero T
		return zero, ErrDoubleTouch
	}
	v, err := j.f.touchErr(nil)
	if err != nil && errors.Is(err, ErrDoubleTouch) {
		return v, err
	}
	j.settle()
	return v, err
}

// Latency returns the job's submit→completion wall time, 0 while it is
// still in flight.
func (j *Job[T]) Latency() time.Duration {
	if j.consumed {
		return j.latency
	}
	if j.stale() {
		return 0
	}
	return time.Duration(j.js.latencyNs.Load())
}

// rootFreelistCap bounds the recycled-root freelist, and workerFreeCap each
// worker's local stash (flushed to the freelist in one lock visit when
// full). Overflow is dropped to the garbage collector — the pool is an
// optimization, never an obligation.
const (
	rootFreelistCap = 256
	workerFreeCap   = 16
)

// jobServer is the runtime's job-server state, split into its own struct so
// Runtime embeds one named field group: the job ID sequence, the admission
// word, and the root freelist. There is no table of in-flight jobs — a job
// is reached through its handle.
type jobServer struct {
	jobSeq atomic.Uint64
	// inflight counts jobs admitted and not yet finished. It is the gauge
	// InFlight reads and, under a cap, the quota admit CASes against: one
	// word, so the gauge can never disagree with what admission allowed.
	inflight atomic.Int64
	// maxInFlight is the admission cap (0 = unlimited). Immutable after New.
	maxInFlight int
	// free is the recycled-root freelist (type-erased; the pop path
	// type-checks the top entry, so homogeneous workloads always hit), fed
	// by the per-worker jobFree stashes.
	freeMu sync.Mutex
	free   []poolableRoot
}

// admit claims up to k admission slots and returns how many it got: all k
// on an uncapped runtime (a plain add), otherwise min(k, cap − inflight)
// in one CAS — 0 means saturated. finish returns a slot by decrementing the
// same word.
func (rt *Runtime) admit(k int) int {
	if rt.maxInFlight == 0 {
		rt.inflight.Add(int64(k))
		return k
	}
	for {
		n := rt.inflight.Load()
		got := min(int64(k), int64(rt.maxInFlight)-n)
		if got <= 0 {
			return 0
		}
		if rt.inflight.CompareAndSwap(n, n+got) {
			checkInflight(rt, n+got)
			return int(got)
		}
	}
}

// InFlight returns the number of jobs admitted and not yet completed: one
// atomic load.
func (rt *Runtime) InFlight() int { return int(rt.inflight.Load()) }

// MaxInFlight returns the admission cap set by WithMaxInFlight (0 = none).
func (rt *Runtime) MaxInFlight() int { return rt.maxInFlight }

// Submit submits fn as a new job's root computation and returns its handle
// without blocking: the fail-fast entry point of the job-server layer.
// Admission control applies when the runtime was built WithMaxInFlight —
// a saturated server rejects with ErrSaturated instead of queueing. A
// closed runtime rejects with ErrClosed; a runtime closing concurrently may
// instead return a job whose Wait observes ErrClosed — either way the
// waiter's outcome is deterministic.
//
// The root is pushed help-first onto the global queue like Run's root; every
// task the job's computation spawns inherits the job's identity for per-job
// profiling attribution (Event.Job). In steady state (freelist warm) Submit
// allocates nothing, and neither does Wait.
func Submit[T any](rt *Runtime, fn func(*W) T) (Job[T], error) {
	if rt.closed.Load() {
		return Job[T]{}, ErrClosed
	}
	if rt.admit(1) == 0 {
		rt.teleExt.Inc(telemetry.CJobsShed)
		return Job[T]{}, ErrSaturated
	}
	return launch(rt, fn), nil
}

// SubmitAll submits every fn as its own job in one batch, appending the
// handles of the admitted jobs to dst (pass a slice with capacity to keep
// the call allocation-free) — the high-rate producer's entry point: one
// admission CAS, one freelist visit and one ID block for the whole batch,
// one bulk wakeup decision, and batch-consistent telemetry (the submitted
// counter moves by the batch size at once).
//
// Admission is all-or-prefix: with a cap, the batch admits as many jobs as
// slots remain (in argument order) and returns ErrSaturated alongside the
// admitted handles when any were shed; with no cap, every fn is admitted.
// A closed runtime returns ErrClosed and no handles; a runtime closing
// concurrently may return handles whose Wait observes ErrClosed — every
// returned handle's Wait is deterministic either way.
func SubmitAll[T any](rt *Runtime, fns []func(*W) T, dst []Job[T]) ([]Job[T], error) {
	if len(fns) == 0 {
		return dst, nil
	}
	if rt.closed.Load() {
		return dst, ErrClosed
	}
	got := rt.admit(len(fns))
	if got > 0 {
		dst = launchBatch(rt, fns[:got], dst)
	}
	if got < len(fns) {
		rt.teleExt.Add(telemetry.CJobsShed, int64(len(fns)-got))
		return dst, ErrSaturated
	}
	return dst, nil
}

// popRoot takes the freelist's top root if it is a *jobRoot[T]; nil on an
// empty list or a foreign type on top (cold start, or a mixed-type
// workload's minority type — the caller allocates). Caller holds freeMu.
func popRoot[T any](rt *Runtime) *jobRoot[T] {
	n := len(rt.free)
	if n == 0 {
		return nil
	}
	r, ok := rt.free[n-1].(*jobRoot[T])
	if !ok {
		return nil
	}
	rt.free[n-1] = nil
	rt.free = rt.free[:n-1]
	return r
}

// launch creates (or recycles) the job composite and spawns the root task
// tagged with the job — the admission slot is already held (finish returns
// it on every completion path, including a shutdown cancellation).
func launch[T any](rt *Runtime, fn func(*W) T) Job[T] {
	rt.freeMu.Lock()
	r := popRoot[T](rt)
	rt.freeMu.Unlock()
	if r == nil {
		r = newJobRoot[T](rt)
	}
	j := initRoot(rt, r, fn, rt.jobSeq.Add(1))
	rt.teleExt.Inc(telemetry.CJobsSubmitted)
	if rt.closed.Load() {
		// Raced a shutdown past the entry check: fail the job fast — finish
		// runs through the cancellation path, so the slot is returned and
		// Wait observes ErrClosed.
		r.fut.cancelIfUnclaimed()
		return j
	}
	rt.teleExt.Inc(telemetry.CSpawnsParentFirst)
	rt.recordSpawn(nil, &r.fut.task, ParentFirst)
	rt.push(nil, &r.fut.task)
	return j
}

// launchBatch is launch for an admitted batch: one ID block, bulk freelist
// pops under one short lock section, batch-consistent telemetry, one
// global-queue visit per push chunk, and a single bounded wakeup decision.
func launchBatch[T any](rt *Runtime, fns []func(*W) T, dst []Job[T]) []Job[T] {
	k := len(fns)
	first := rt.jobSeq.Add(uint64(k)) - uint64(k) + 1
	base := len(dst)
	for i := 0; i < k; i++ {
		dst = append(dst, Job[T]{})
	}
	// Bulk freelist pop: take matching roots off the top until it runs dry
	// or a foreign type surfaces; allocate the misses outside the lock.
	popped := 0
	rt.freeMu.Lock()
	for ; popped < k; popped++ {
		r := popRoot[T](rt)
		if r == nil {
			break
		}
		dst[base+popped].js = &r.js
	}
	rt.freeMu.Unlock()
	for i := popped; i < k; i++ {
		dst[base+i].js = &newJobRoot[T](rt).js
	}
	for i := 0; i < k; i++ {
		j := &dst[base+i]
		*j = initRoot(rt, j.js.owner.(*jobRoot[T]), fns[i], first+uint64(i))
	}
	rt.teleExt.Add(telemetry.CJobsSubmitted, int64(k))
	if rt.closed.Load() {
		// Shutdown raced the batch: cancel every root — each runs its own
		// finish, returning its slot, and every handle's Wait observes
		// ErrClosed deterministically.
		for i := 0; i < k; i++ {
			dst[base+i].f.cancelIfUnclaimed()
		}
		return dst
	}
	rt.teleExt.Add(telemetry.CSpawnsParentFirst, int64(k))
	for i := 0; i < k; i++ {
		j := &dst[base+i]
		rt.recordSpawn(nil, &j.f.task, ParentFirst)
	}
	// Publish the batch: chunked bulk pushes onto the global queue (one lock
	// visit per chunk, no per-batch allocation), then one wakeup decision
	// sized to the batch — not k separate signals. The queue's size store
	// precedes the parked load, as in push.
	var buf [32]*task
	pushed := 0
	for pushed < k {
		c := 0
		for c < len(buf) && pushed+c < k {
			buf[c] = &dst[base+pushed+c].f.task
			c++
		}
		rt.global.PushBottomN(buf[:c])
		pushed += c
	}
	if rt.closed.Load() {
		// Same post-push re-check as push: the workers may already be gone.
		rt.drainGlobal()
		return dst
	}
	if rt.parked.Load() > 0 {
		rt.signal(nil, k)
	}
	return dst
}

// initRoot wires one (fresh or recycled) composite for its new tenant and
// returns the generation-stamped handle.
func initRoot[T any](rt *Runtime, r *jobRoot[T], fn func(*W) T, id uint64) Job[T] {
	js := &r.js
	js.id.Store(id)
	js.submitted = time.Now()
	js.refs.Store(2) // the root task + the handle
	f := &r.fut
	f.body = futureBody[T](fn)
	js.root = rt.taskSeq.Add(1)
	f.setID(js.root)
	return Job[T]{f: f, js: js, id: id, gen: js.gen.Load()}
}
