package runtime

// The job-server layer: the runtime as a multi-tenant service. Run executes
// one root computation and blocks its caller; Submit accepts a root
// computation as a *job* — non-blocking, identified, admission-controlled —
// so many independent computations share the worker pool concurrently, the
// regime the ROADMAP's "heavy traffic" north star describes. Every task a
// job's computation spawns inherits the job's identity (threaded through the
// task struct and into profiler events as Event.Job), so per-job Stats, wall
// latency, and — via internal/profile's per-job DAG splitting — each job's
// own deviation count against its own P·T∞² envelope remain attributable
// even with many DAGs in flight at once.
//
// Cost discipline (see DESIGN.md, "serve path anatomy"): the steady-state
// Submit+Wait pair allocates nothing — the root future and the job state
// live in one pooled composite (jobRoot) recycled through per-shard
// freelists, admission is a CAS on a per-domain striped quota (no channel,
// no lock), and the handle returned to the caller is a value. A spawn
// *inside* a job pays exactly the non-job spawn path plus one pointer copy
// (the inherited job tag) and, per executed task, a handful of atomic adds
// on the job's counters. A job-less Run is unchanged.
//
// Recycling safety: a pooled root may only be reused once nothing can reach
// it — not the handle, not the root task, not any still-pending task of the
// job (a job may legally abandon spawned futures that execute after the
// root returns). jobState.refs counts exactly those references; the last
// release recycles. Handles are generation-checked (jobState.gen) so a
// stale copy of an already-consumed handle fails fast with ErrDoubleTouch
// instead of touching the pool's next tenant. Job IDs themselves are never
// recycled — they stay dense and monotone from jobSeq — so profiler
// attribution (Event.Job, SplitJobs) needs no generation bits in the ID.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"futurelocality/internal/telemetry"
)

// ErrSaturated reports a Submit rejected by admission control: the runtime
// already has WithMaxInFlight jobs in flight. Callers shed load (the
// fail-fast server discipline) or fall back to SubmitWait to queue.
var ErrSaturated = errors.New("runtime: job server saturated (max in-flight jobs reached)")

// jobState is the runtime-side record of one submitted job: identity, the
// root task it hangs off, wall-clock capture, the per-job counters every
// worker credits as it executes the job's tasks, and the liveness refcount
// that gates recycling. It lives in the runtime's registry while the job is
// in flight; afterwards its final values survive in the handle (captured at
// consume time), because the struct itself returns to a freelist.
type jobState struct {
	// gen is the handle-validity generation: bumped once each time the
	// pooled root is recycled, so a stale Job handle copy detects reuse
	// instead of consuming the next tenant's future. It doubles as the
	// seqlock word for jobStats reads racing a recycle.
	gen atomic.Uint64
	// refs counts liveness references: the root task and the handle (2 at
	// launch) plus one per still-pending task spawned by the job's
	// computation. The release that drops it to zero recycles the root
	// composite into a freelist.
	refs atomic.Int64
	// id is atomic only because a stale reader (an external toucher holding
	// a job future across the job's retirement) may race a recycle: it then
	// reads the old or the new ID, never a torn one.
	id   atomic.Uint64
	root uint64
	rt   *Runtime
	// reg is the registry (and freelist) shard this job lives on; tok the
	// admission stripe whose token finish returns (-1 when uncapped). Batch
	// submission registers a whole batch on one shard, so reg is stored
	// rather than derived from the ID.
	reg, tok int32
	// owner points back to the jobRoot composite, pre-erased to the pooling
	// interface so the release path never converts (or allocates).
	owner poolableRoot
	// submitted is the Submit timestamp (immutable while the job is live).
	submitted time.Time
	// queueWaitNs is the submit→first-execution delay of the root task,
	// published once by the worker that begins it (0 while queued).
	queueWaitNs atomic.Int64
	// latencyNs is the submit→completion wall latency, published exactly
	// once by finish (0 while in flight).
	latencyNs atomic.Int64

	// Per-job counters, scoped to this job's tasks: tasksRun and steals are
	// credited to the executed task's job, inline/blocked touches to the
	// touched task's job, helped tasks to the helped (executed) task's job.
	// Unlike the pooled Stats.HelpedTasks — which counts every task run
	// while helping, stolen or not — helped here follows the deviation
	// semantics the profiler uses: a task stolen during a help is counted
	// in steals only, so steals+helped+blocked never double-charges one
	// displaced execution.
	tasksRun, steals        atomic.Int64
	inline, helped, blocked atomic.Int64
}

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
// invariant fields — runtime pointers, the runner interface, the owner
// back-pointer — wired once for the struct's whole pooled lifetime.
func newJobRoot[T any](rt *Runtime) *jobRoot[T] {
	r := &jobRoot[T]{}
	r.fut.rt = rt
	r.fut.runner = &r.fut
	r.js.rt = rt
	r.js.owner = r
	return r
}

// prepareForReuse scrubs the composite for its next tenant: the status word
// goes back to created and untouched, and the result, body and wait-gate
// slots drop their references so the pool never pins user data. The
// invariant fields (rt, runner, owner) stay wired; identity fields are
// assigned fresh at the next launch.
func (r *jobRoot[T]) prepareForReuse() {
	f := &r.fut
	var zero T
	f.fn = nil
	f.result = zero
	f.gate.Store(nil)
	f.state.Store(stateCreated)
	f.stolenBatch = 0
	f.stolenCross = false
	f.job = nil
	f.id = 0
	js := &r.js
	js.root = 0
	js.queueWaitNs.Store(0)
	js.latencyNs.Store(0)
	js.tasksRun.Store(0)
	js.steals.Store(0)
	js.inline.Store(0)
	js.helped.Store(0)
	js.blocked.Store(0)
}

// release drops one liveness reference; the last one retires the composite:
// bump the generation (stale handles fail fast from here on), scrub, and
// recycle — into the releasing worker's local stash when there is one
// (flushed to its domain shard in one lock visit when full), else straight
// onto the job's registry shard freelist.
func (js *jobState) release(w *W) {
	if js.refs.Add(-1) != 0 {
		return
	}
	js.gen.Add(1)
	js.owner.prepareForReuse()
	rt := js.rt
	if w != nil && w.rt == rt {
		w.jobFree = append(w.jobFree, js.owner)
		if len(w.jobFree) == cap(w.jobFree) {
			w.flushJobFree()
		}
		return
	}
	sh := &rt.shards[js.reg]
	sh.mu.Lock()
	if len(sh.free) < cap(sh.free) {
		sh.free = append(sh.free, js.owner)
	}
	sh.mu.Unlock()
}

// flushJobFree donates the worker's recycled-root stash to its domain's
// shard freelist in one lock acquisition (overflow beyond the shard cap is
// dropped to the garbage collector).
func (w *W) flushJobFree() {
	sh := &w.rt.shards[w.domain%len(w.rt.shards)]
	sh.mu.Lock()
	n := cap(sh.free) - len(sh.free)
	if n > len(w.jobFree) {
		n = len(w.jobFree)
	}
	sh.free = append(sh.free, w.jobFree[:n]...)
	sh.mu.Unlock()
	clear(w.jobFree)
	w.jobFree = w.jobFree[:0]
}

// finish publishes the job's completion: wall latency first, then registry
// removal, the in-flight gauge decrement, and the admission-token release.
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
	sh := &rt.shards[js.reg]
	sh.mu.Lock()
	delete(sh.jobs, js.id.Load())
	sh.mu.Unlock()
	sh.inflight.Add(-1)
	if js.tok >= 0 {
		rt.releaseSlot(js.tok)
	}
}

// jobStats snapshots the counters (approximate while the job is in flight).
// The generation re-check discards a snapshot torn by a concurrent recycle
// — a stale reader retries and returns the next tenant's (young, coherent)
// view rather than a mix of two jobs.
func (js *jobState) jobStats() JobStats {
	for {
		g := js.gen.Load()
		s := JobStats{
			ID:             js.id.Load(),
			TasksRun:       js.tasksRun.Load(),
			Steals:         js.steals.Load(),
			InlineTouches:  js.inline.Load(),
			HelpedTasks:    js.helped.Load(),
			BlockedTouches: js.blocked.Load(),
			QueueWait:      time.Duration(js.queueWaitNs.Load()),
			Latency:        time.Duration(js.latencyNs.Load()),
		}
		if js.gen.Load() == g {
			return s
		}
	}
}

// JobStats is a per-job snapshot of scheduler counters and wall-clock
// capture: the job-scoped analogue of Stats, so one job's deviation proxies
// (steals, helped, blocked) can be read off without disentangling the
// pooled runtime counters from its neighbors'.
type JobStats struct {
	// ID is the job's runtime-assigned identity (dense, starting at 1; it is
	// the Event.Job value profiling records for the job's events).
	ID uint64
	// TasksRun counts executed tasks belonging to this job; Steals the
	// displaced ones among them that a thief executed.
	TasksRun, Steals int64
	// InlineTouches and BlockedTouches count this job's futures' touches by
	// wait mode. HelpedTasks counts this job's tasks executed out of spawn
	// order by a helping worker, excluding stolen ones (those are in Steals
	// — one displaced execution, one counter, matching the profiler's
	// deviation accounting; the pooled Stats.HelpedTasks by contrast counts
	// stolen helps in both columns).
	InlineTouches, HelpedTasks, BlockedTouches int64
	// QueueWait is the submit→first-execution delay of the root task (0
	// while it is still queued).
	QueueWait time.Duration
	// Latency is the submit→completion wall time (0 while in flight).
	Latency time.Duration
}

// Job is the handle to one submitted root computation: a typed future of the
// job's result plus the job's identity, per-job stats, and wall-latency
// capture. Obtain one from Submit, SubmitWait, or SubmitAll; consume the
// result exactly once with Wait or WaitErr (the single-touch discipline
// applies to the job's root future like any other).
//
// The handle is a value: the consuming call captures the job's final stats
// into the handle before the runtime recycles the underlying structures, so
// ID, Stats, Latency, and Done keep answering after the consume. Treat a
// copied handle like a copied single-touch future — exactly one copy may
// consume (a stale copy's Wait fails with ErrDoubleTouch), and copies must
// not race the consume from multiple goroutines.
type Job[T any] struct {
	f  *Future[T]
	js *jobState
	// id is the handle's own copy of the job identity (it outlives the
	// pooled jobState); gen is the jobState generation at launch, the
	// staleness check.
	id  uint64
	gen uint64
	// fin holds the final stats, captured by the consuming call; consumed
	// marks this handle copy as spent.
	fin      JobStats
	consumed bool
}

// ID returns the job's runtime-assigned identity — the Event.Job value its
// profiled events carry.
func (j *Job[T]) ID() uint64 { return j.id }

// Done reports whether the job has completed (without consuming the result).
func (j *Job[T]) Done() bool {
	if j.consumed {
		return true
	}
	return j.f.Done()
}

// stale reports that the underlying root was consumed through another copy
// of this handle and has been recycled — this copy must not touch it.
func (j *Job[T]) stale() bool {
	return j.js == nil || j.js.gen.Load() != j.gen
}

// settle finalizes a successful consume: capture the job's final stats into
// the handle (they survive the recycle) and drop the handle's liveness
// reference, which lets the pooled root be reused.
func (j *Job[T]) settle() {
	if j.consumed {
		return
	}
	j.consumed = true
	j.fin = j.js.jobStats()
	j.fin.ID = j.id
	j.js.release(nil)
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
				// it): settle so the final stats survive and the root recycles.
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
	v, err := j.f.TouchErr(nil)
	if err != nil && errors.Is(err, ErrDoubleTouch) {
		return v, err
	}
	j.settle()
	return v, err
}

// TryWait consumes the result only if the job has already completed; ok
// reports whether it was taken. An unsuccessful TryWait does not spend the
// single consume.
func (j *Job[T]) TryWait() (v T, ok bool) {
	if j.consumed || j.stale() {
		panic(ErrDoubleTouch)
	}
	v, ok = j.f.TryTouch(nil)
	if ok {
		j.settle()
	}
	return v, ok
}

// Stats snapshots the job's scheduler counters and wall-clock capture
// (approximate while the job is in flight, final once consumed).
func (j *Job[T]) Stats() JobStats {
	if j.consumed {
		return j.fin
	}
	if j.stale() {
		return JobStats{ID: j.id}
	}
	return j.js.jobStats()
}

// Latency returns the job's submit→completion wall time, 0 while it is
// still in flight.
func (j *Job[T]) Latency() time.Duration {
	if j.consumed {
		return j.fin.Latency
	}
	if j.stale() {
		return 0
	}
	return time.Duration(j.js.latencyNs.Load())
}

// rootFreelistCap bounds each registry shard's recycled-root freelist, and
// workerFreeCap each worker's local stash (flushed to the domain shard in
// one lock visit when full). Overflow is dropped to the garbage collector —
// the pool is an optimization, never an obligation.
const (
	rootFreelistCap = 256
	workerFreeCap   = 16
)

// jobRegistry is the runtime's in-flight job table plus admission state.
// Split into its own struct so Runtime embeds one named field group. The
// table is striped into one shard per locality domain (minimum one):
// dense job IDs round-robin across the shards, so concurrent submitters
// and finishers on a multi-domain machine contend on separate mutexes and
// separate cache lines instead of one registry lock. The admission quota is
// striped the same way (jobShard.avail): acquire is a CAS against the home
// stripe with overflow borrowing from the others, so admit and
// saturated-shed are both lock-free.
type jobRegistry struct {
	shards []jobShard
	jobSeq atomic.Uint64
	// maxInFlight is the admission cap (0 = unlimited), the sum of the
	// per-shard quotas.
	maxInFlight int
	// slotWaiters gates the SubmitWait slow path: a token release takes the
	// runtime mutex to signal only when a waiter is actually registered —
	// the same lock-free-when-idle discipline push uses for parked workers.
	slotWaiters atomic.Int32
	// slotCond (sharing the runtime mutex) parks SubmitWait callers on a
	// saturated server; Shutdown broadcasts it.
	slotCond *sync.Cond
}

// jobShard is one stripe of the in-flight job table: the admission-quota
// stripe and the in-flight gauge each on their own cache line (they are
// CAS/add-hammered by different submitters), then the mutex-guarded table
// and root freelist.
type jobShard struct {
	// avail is the stripe's remaining admission quota (meaningful only with
	// a cap; acquire CASes it down, release adds it back).
	avail atomic.Int64
	_     [cacheLine - 8]byte
	// inflight counts jobs registered on this shard and not yet finished —
	// the O(1) InFlight gauge, off the shard mutex.
	inflight atomic.Int64
	_        [cacheLine - 8]byte
	mu       sync.Mutex
	jobs     map[uint64]*jobState
	// free is the shard's recycled-root freelist (type-erased; the pop path
	// type-checks the top entry, so homogeneous workloads always hit).
	free []poolableRoot
	_    [cacheLine - 48]byte
}

// initJobShards sizes the registry stripe count (called once by New; the
// count follows the topology's domain count, minimum one), preallocates the
// per-shard tables and freelists, and stripes the admission quota.
func (r *jobRegistry) initJobShards(n, maxInFlight int) {
	if n < 1 {
		n = 1
	}
	if maxInFlight < 0 {
		maxInFlight = 0
	}
	r.maxInFlight = maxInFlight
	r.shards = make([]jobShard, n)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.jobs = make(map[uint64]*jobState, 64)
		sh.free = make([]poolableRoot, 0, rootFreelistCap)
		if maxInFlight > 0 {
			// Distribute the cap across the stripes, remainder to the low
			// ones; a stripe may legitimately hold zero (cap < stripes) —
			// borrowing covers it.
			q := int64(maxInFlight / n)
			if i < maxInFlight%n {
				q++
			}
			sh.avail.Store(q)
		}
	}
}

// acquireSlot claims one admission token, starting at a rotating home
// stripe and borrowing from the others when it is dry. Returns the stripe
// the token came from; false means every stripe is dry (saturated).
// Lock-free: one CAS on the common path.
func (rt *Runtime) acquireSlot() (int32, bool) {
	n := len(rt.shards)
	home := int(rt.jobSeq.Load() % uint64(n))
	for i := 0; i < n; i++ {
		idx := home + i
		if idx >= n {
			idx -= n
		}
		sh := &rt.shards[idx]
		for {
			a := sh.avail.Load()
			if a <= 0 {
				break
			}
			if sh.avail.CompareAndSwap(a, a-1) {
				return int32(idx), true
			}
		}
	}
	return 0, false
}

// takeSlots claims up to want tokens from one stripe in a single CAS loop —
// the batch-admission primitive.
func takeSlots(sh *jobShard, want int) int {
	for {
		a := sh.avail.Load()
		if a <= 0 {
			return 0
		}
		take := int64(want)
		if take > a {
			take = a
		}
		if sh.avail.CompareAndSwap(a, a-take) {
			return int(take)
		}
	}
}

// releaseSlot returns one admission token to its stripe and wakes a queued
// SubmitWait caller if any is registered. The waiter gate keeps the release
// lock-free when nobody queues — the overwhelming common case.
func (rt *Runtime) releaseSlot(tok int32) {
	rt.shards[tok].avail.Add(1)
	if rt.slotWaiters.Load() > 0 {
		rt.mu.Lock()
		rt.slotCond.Signal()
		rt.mu.Unlock()
	}
}

// InFlight returns the number of jobs admitted and not yet completed: the
// sum of the per-shard gauges, no locks taken.
func (rt *Runtime) InFlight() int {
	var n int64
	for i := range rt.shards {
		n += rt.shards[i].inflight.Load()
	}
	return int(n)
}

// MaxInFlight returns the admission cap set by WithMaxInFlight (0 = none).
func (rt *Runtime) MaxInFlight() int { return rt.maxInFlight }

// JobStats looks up the per-job counters of an in-flight job by ID; ok is
// false once the job has completed (read completed stats from the Job
// handle, which outlives the registry entry). The scan starts at the ID's
// natural stripe — where singly-submitted jobs live — and falls back to the
// others, because a batch registers all its jobs on the batch's home shard.
func (rt *Runtime) JobStats(id uint64) (JobStats, bool) {
	n := len(rt.shards)
	for i := 0; i < n; i++ {
		sh := &rt.shards[(int(id%uint64(n))+i)%n]
		sh.mu.Lock()
		js := sh.jobs[id]
		sh.mu.Unlock()
		if js != nil {
			return js.jobStats(), true
		}
	}
	return JobStats{}, false
}

// Submit submits fn as a new job's root computation and returns its handle
// without blocking: the fail-fast entry point of the job-server layer.
// Admission control applies when the runtime was built WithMaxInFlight —
// a saturated server rejects with ErrSaturated instead of queueing (use
// SubmitWait to queue). A closed runtime rejects with ErrClosed; a runtime
// closing concurrently may instead return a job whose Wait observes
// ErrClosed — either way the waiter's outcome is deterministic.
//
// The root is pushed help-first onto the global queue like Run's root; every
// task the job's computation spawns inherits the job's identity for per-job
// Stats and profiling attribution (Event.Job). In steady state (freelist
// warm) a Submit+Wait pair allocates nothing.
func Submit[T any](rt *Runtime, fn func(*W) T) (Job[T], error) {
	if rt.closed.Load() {
		return Job[T]{}, ErrClosed
	}
	tok := int32(-1)
	if rt.maxInFlight > 0 {
		t, ok := rt.acquireSlot()
		if !ok {
			rt.teleExt.Inc(telemetry.CJobsShed)
			return Job[T]{}, ErrSaturated
		}
		tok = t
	}
	return launch(rt, fn, tok), nil
}

// SubmitWait is Submit with queueing backpressure: on a saturated runtime it
// blocks until an in-flight job completes and frees a slot — or until the
// runtime shuts down, in which case it returns ErrClosed instead of waiting
// on a server that will never drain.
func SubmitWait[T any](rt *Runtime, fn func(*W) T) (Job[T], error) {
	if rt.closed.Load() {
		return Job[T]{}, ErrClosed
	}
	tok := int32(-1)
	if rt.maxInFlight > 0 {
		t, ok := rt.acquireSlot()
		if !ok {
			// Slow path: register as a waiter and park on the slot cond. The
			// waiter count is incremented under the mutex but read atomically
			// by releaseSlot, whose token store is sequenced before its load —
			// so either the release sees us (and signals) or our re-acquire
			// sees the token. No lost wakeup.
			rt.mu.Lock()
			rt.slotWaiters.Add(1)
			for {
				if rt.closed.Load() {
					rt.slotWaiters.Add(-1)
					rt.mu.Unlock()
					return Job[T]{}, ErrClosed
				}
				if t, ok = rt.acquireSlot(); ok {
					break
				}
				rt.slotCond.Wait()
			}
			rt.slotWaiters.Add(-1)
			rt.mu.Unlock()
		}
		tok = t
	}
	return launch(rt, fn, tok), nil
}

// SubmitAll submits every fn as its own job in one batch, appending the
// handles of the admitted jobs to dst (pass a slice with capacity to keep
// the call allocation-free) — the high-rate producer's entry point: one
// admission visit per quota stripe, one registry-shard visit for the whole
// batch, one bulk wakeup decision, and batch-consistent telemetry (the
// submitted counter moves by the batch size at once).
//
// Admission is all-or-prefix: with a cap, the batch admits as many jobs as
// tokens remain (in argument order) and returns ErrSaturated alongside the
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
	if rt.maxInFlight == 0 {
		return launchBatch(rt, fns, dst, -1), nil
	}
	// Capped: sweep the quota stripes, launching each stripe's grant as one
	// sub-batch tagged with that stripe's token. One stripe usually covers
	// the whole batch; borrowing costs one extra sub-batch per extra stripe.
	n := len(rt.shards)
	home := int(rt.jobSeq.Load() % uint64(n))
	done := 0
	for i := 0; i < n && done < len(fns); i++ {
		idx := home + i
		if idx >= n {
			idx -= n
		}
		if got := takeSlots(&rt.shards[idx], len(fns)-done); got > 0 {
			dst = launchBatch(rt, fns[done:done+got], dst, int32(idx))
			done += got
		}
	}
	if done < len(fns) {
		rt.teleExt.Add(telemetry.CJobsShed, int64(len(fns)-done))
		return dst, ErrSaturated
	}
	return dst, nil
}

// launch creates (or recycles) the job composite, registers it, and spawns
// the root task tagged with the job — the admission token is already held
// (finish releases it on every completion path, including a shutdown
// cancellation).
func launch[T any](rt *Runtime, fn func(*W) T, tok int32) Job[T] {
	id := rt.jobSeq.Add(1)
	reg := int32(id % uint64(len(rt.shards)))
	sh := &rt.shards[reg]
	var r *jobRoot[T]
	sh.mu.Lock()
	if n := len(sh.free); n > 0 {
		if c, ok := sh.free[n-1].(*jobRoot[T]); ok {
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
			r = c
		}
	}
	if r == nil {
		// Freelist miss (cold start, or a mixed-type workload's minority
		// type): allocate outside the lock and re-enter for the insert.
		sh.mu.Unlock()
		r = newJobRoot[T](rt)
		sh.mu.Lock()
	}
	r.js.id.Store(id)
	sh.jobs[id] = &r.js
	sh.mu.Unlock()
	sh.inflight.Add(1)
	j := initRoot(rt, r, fn, id, reg, tok)
	rt.teleExt.Inc(telemetry.CJobsSubmitted)
	if rt.closed.Load() {
		// Raced a shutdown past the entry check: fail the job fast — finish
		// runs through the cancellation path, so the token and registry entry
		// are released and Wait observes ErrClosed.
		r.fut.cancelIfUnclaimed()
		return j
	}
	rt.teleExt.Inc(telemetry.CSpawnsParentFirst)
	rt.recordSpawn(nil, &r.fut.task, ParentFirst)
	rt.push(nil, &r.fut.task)
	return j
}

// launchBatch is launch for a contiguous sub-batch sharing one admission
// stripe: one ID block, one registry shard for every job in the batch (its
// home shard — derived from the first ID), bulk freelist pops and map
// inserts under two short lock sections, batch-consistent telemetry, one
// global-queue visit per push chunk, and a single bounded wakeup decision.
func launchBatch[T any](rt *Runtime, fns []func(*W) T, dst []Job[T], tok int32) []Job[T] {
	k := len(fns)
	end := rt.jobSeq.Add(uint64(k))
	first := end - uint64(k) + 1
	reg := int32(first % uint64(len(rt.shards)))
	sh := &rt.shards[reg]
	base := len(dst)
	for i := 0; i < k; i++ {
		dst = append(dst, Job[T]{})
	}
	// Bulk freelist pop: take matching roots off the top until it runs dry
	// or a foreign type surfaces; allocate the misses outside the lock.
	popped := 0
	sh.mu.Lock()
	for popped < k {
		n := len(sh.free)
		if n == 0 {
			break
		}
		c, ok := sh.free[n-1].(*jobRoot[T])
		if !ok {
			break
		}
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		dst[base+popped].js = &c.js
		popped++
	}
	sh.mu.Unlock()
	for i := popped; i < k; i++ {
		dst[base+i].js = &newJobRoot[T](rt).js
	}
	// Initialize every composite, then register the whole batch in one lock
	// visit. The jobs are unreachable until the insert, so the init needs no
	// lock; a concurrent JobStats between insert and push just sees a
	// freshly-queued job.
	for i := 0; i < k; i++ {
		j := &dst[base+i]
		*j = initRoot(rt, j.js.owner.(*jobRoot[T]), fns[i], first+uint64(i), reg, tok)
	}
	sh.mu.Lock()
	for i := 0; i < k; i++ {
		sh.jobs[dst[base+i].id] = dst[base+i].js
	}
	sh.mu.Unlock()
	sh.inflight.Add(int64(k))
	rt.teleExt.Add(telemetry.CJobsSubmitted, int64(k))
	if rt.closed.Load() {
		// Shutdown raced the batch: cancel every root — each runs its own
		// finish, releasing tokens and registry entries, and every handle's
		// Wait observes ErrClosed deterministically.
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
	if p := rt.parked.Load(); p > 0 {
		want := k
		if int(p) < want {
			want = int(p)
		}
		rt.signalN(want)
	}
	return dst
}

// initRoot wires one (fresh or recycled) composite for its new tenant and
// returns the generation-stamped handle.
func initRoot[T any](rt *Runtime, r *jobRoot[T], fn func(*W) T, id uint64, reg, tok int32) Job[T] {
	js := &r.js
	js.id.Store(id)
	js.reg, js.tok = reg, tok
	js.submitted = time.Now()
	js.refs.Store(2) // the root task + the handle
	f := &r.fut
	f.fn = fn
	f.id = rt.taskSeq.Add(1)
	f.job = js
	js.root = f.id
	return Job[T]{f: f, js: js, id: id, gen: js.gen.Load()}
}
