// Package runtime is a real parallel work-stealing futures runtime for Go,
// implementing the discipline the paper advocates:
//
//   - futures are single-touch: touching a future twice panics, which keeps
//     the implementation simple and fast (the paper cites Blelloch &
//     Reid-Miller for exactly this simplification);
//   - futures may be passed to other tasks and touched there (the
//     Figure 5(b) pattern) — but still only once;
//   - both fork disciplines are expressible through one spawn primitive:
//     SpawnWith(rt, w, d, fn) takes an explicit Discipline, Spawn
//     uses the runtime-wide default set by WithDiscipline. ParentFirst
//     (help-first) makes the child stealable and continues with the parent;
//     FutureFirst (work-first) dives into the child immediately — the
//     Join2 mechanics generalized to a plain future (see SpawnWith
//     for the continuation-theft caveat Go imposes).
//
// Workers run on dedicated goroutines, each owning a lock-free
// pointer-specialized Chase–Lev deque (top/bottom on separate cache lines);
// thieves pick victims with an inline xorshift generator, falling back to a
// global injection queue. There is one steal rule and no option to choose
// another (stealOnce): one task from the top of a victim drawn uniformly at
// random among all the other workers — the paper's uniformly random single
// steal, the thief the theorems assume. A runtime is one steal domain
// whatever machine it runs on; a host with several last-level caches runs
// one runtime per cache behind a shard.Pool, the one layer that knows the
// machine's topology. A worker with no work first polls for a few tens of
// microseconds, yielding its P between looks: it takes a job that arrives
// meanwhile without having slept, and it robs a peer only after it has been
// dry for a few microseconds, not the instant it runs out (see W.dry). Then
// it parks, sleeping only while every queue looks empty, with its slot on the
// runtime's idle stack. A slot is how every goroutine of the runtime sleeps:
// a channel with room for one token, owned by each worker and borrowed from a
// pool by any other goroutine for one wait. Push never takes the lock unless
// a worker is actually parked (an atomic parked count, the stack's height,
// gates it — a polling worker is not counted), and wakes exactly one worker
// per new task, the one that parked last, instead of broadcasting to the herd.
// A touch of an unfinished future first tries to inline-run it (if nobody
// started it, popping it off the toucher's own deque first, and dropping
// finished entries it exposes, so deques hold live tasks only), then helps by
// running other tasks, then polls like a dry worker, and only then blocks on
// its slot, which it installs in the task for the completer to wake.
//
// The hot path is allocation-free past the future itself: a future IS its
// task (one 48-byte allocation for a Future[int] carries status word, body
// and result), a deque stores task pointers directly (no per-push box), the
// task's ID, scheduling state, completion and the single-touch latch
// are bits of one atomic word, and a blocked touch sleeps on a slot the
// toucher already has. A worker-local spawn and inline touch also
// write no cache line other workers share: task IDs are unique but not dense
// in spawn order, because each worker draws them from the runtime's counter a
// block at a time, push reads the parked count without writing anything, and
// the per-task counters are a plain table in the worker, published to its
// telemetry row before anyone can wait for the result. See
// DESIGN.md, "hot path anatomy", for the per-operation budget.
//
// Errors and cancellation: task panics surface through Touch (re-panicking
// the original value) or RunErr (returned as an error, wrapping the panic in
// *PanicError). A runtime that has been Shutdown fails new spawns fast with
// ErrClosed and cancels still-queued tasks instead of letting touches hang
// on a dead queue.
//
// Beyond the one-computation Run entry point, the job-server layer (see
// job.go) makes the pool multi-tenant: Submit accepts concurrent root
// computations as identified jobs with wall-latency capture, admission
// control (WithMaxInFlight, ErrSaturated), and per-job profiler attribution
// (Event.Job), so each in-flight computation's deviations can be checked
// against its own envelope.
//
// Cache misses cannot be observed portably from Go, and goroutine
// scheduling is opaque — this is exactly the repro gap the simulator
// (internal/sim) closes. The runtime instead exposes the observable proxies
// the paper's model predicts: steals, inline touches, helped tasks, and
// blocked touches (see Stats). The live profiler (StartProfile, package
// internal/profile) records these per event — including the discipline of
// every spawn — reconstructs the computation DAG a run actually performed,
// and hands it to the model layers, so a real execution and its simulator
// replay can be compared directly and deviations attributed to the policy
// that produced them.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"futurelocality/internal/deque"
	"futurelocality/internal/profile"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
)

// cacheLine is the padding unit separating fields written by different
// cores (64 bytes on amd64/arm64).
const cacheLine = 64

// A task's status word. The low two bits are the scheduling state, which only
// moves forward — created → running → done — the next bit up is the
// single-touch latch of the future the task computes, which is set once and
// never cleared, and the bits above hold the task's ID:
//
//	bits 63..3   bit 2     bits 1..0
//	task ID      touched   0 created   published, nobody has claimed the body
//	                       1 running   one worker owns the body (claim: CAS created → running)
//	                       2 done      result and panic value published (complete: Add(1))
//
// One word instead of three (state, done flag, latch) is what lets a worker's
// touch of an unstarted future claim the body and spend the touch with a
// single CAS (created → running|touched), and lets completion be a single
// Add that keeps a latch another goroutine sets at the same moment. The ID
// rides along because every writer operates on the word it loaded and none
// carries into bit 3: it is stored once, before the task is published, and
// then only read. Every access is a sequentially consistent atomic, which the
// lost-wakeup argument of the slot handshake depends on.
const (
	stateCreated uint64 = iota
	stateRunning
	stateDone
	stateMask    uint64 = 3
	stateTouched uint64 = 4
	// idShift places the ID above the state and the latch: 61 bits, 73 years
	// of IDs at 10⁹ spawns a second.
	idShift = 3
)

// slot is how a goroutine of the runtime sleeps: a channel with room for one
// token. Every worker owns one (W.slot); a goroutine that is not a worker
// borrows one from slots for the length of one wait. A sleeper puts its slot
// where its waker will look — in the waiter word of the task it waits for, or
// on the idle stack when a worker parks — and the waker sends the token.
//
// A token is a hint, not a count. A send never blocks: a token already in
// the channel is enough. A waker can find the slot of a waiter that re-checked
// and left without sleeping, and the token it leaves there may end a later
// sleep on the same slot early. So every sleeper re-checks after it wakes and
// sleeps again while its condition does not hold: a toucher while the task is
// unfinished, a parked worker while its slot is still on the idle stack.
type slot struct {
	ch chan struct{}
	// listed is set while the slot is on the idle stack, and cleared by the
	// wakeOne that pops it. Guarded by Runtime.mu.
	listed bool
}

func newSlot() *slot { return &slot{ch: make(chan struct{}, 1)} }

// wake leaves the token in s, unless one is already there.
func (s *slot) wake() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// slots lends slots to the goroutines that are not workers.
var slots = sync.Pool{New: func() any { return newSlot() }}

// The slot handshake of a task. The completer publishes done — an atomic
// write to its status word — and then loads the waiter word, waking the slot
// it finds (task.complete); a waiter that has seen done unset installs its
// slot and then loads done again, sleeping only if it is still unset
// (task.waitDone). All four accesses are sequentially consistent, so no
// wakeup is lost (Dekker): either the completer's load sees the slot, or the
// install comes after that load — hence after done was published — and the
// re-check sees done and does not sleep.
//
// The single-touch discipline leaves a task one waiter. A Scope's private
// wait (SpawnIn) can add a second: its install displaces the first slot, and
// it passes a token to the displaced slot as it leaves, so each waiter is
// woken by the completer or by the waiter that displaced it.

// awaited is what a helping toucher waits for (see W.helpUntil): a task — a
// future's touch, which ignores arg — or item arg of a stream.
type awaited interface {
	readyAt(arg int32) bool
	// waitAt blocks until readyAt(arg): a task's waiter sleeps on s, the
	// caller's slot, a stream's on the stream's gate.
	waitAt(arg int32, s *slot)
}

// task is the schedulable unit — embedded directly in Future and Stream, so
// spawning allocates no separate task object, no closure wrapping the body,
// and no done channel: one allocation carries ID, status word, body and the
// body's result slot. 40 bytes, so a Future[int] is 48, the allocator's
// 48-byte class (TestFutureSize).
//
// A task sits at offset 0 of the Future or Stream that embeds it, so a
// *task converts back to its embedding object (TestTaskAtOffsetZero); the
// body does that conversion, the one unsafe step of the runtime, and -race
// builds check that it stays inside the object's allocation (checkptr).
type task struct {
	// status is the status word: the task's ID, scheduling state, completion
	// and the single-touch latch (see stateCreated). The ID identifies the
	// task in profiling traces (unique, from Runtime.taskSeq, starting at 1;
	// 0 is the external context); workers draw IDs in blocks (see
	// W.nextTaskID), so IDs are not dense in spawn order across workers.
	status atomic.Uint64
	// job is the submitted job this task belongs to, or its runtime's job 0
	// (Runtime.solo) for job-less work such as Run roots: never nil, so a
	// task's runtime is job.rt. Set once before the task is published — at
	// Submit for a job root, inherited from the spawning worker's current job
	// for everything the job's computation spawns — and read through the same
	// publication edges as the body, so no atomics are needed. It is what
	// threads per-job identity into Stats counters and profiler events.
	job *jobState
	// waiter is the slot of the goroutine blocked on the task, nil until one
	// blocks (see the slot handshake).
	waiter atomic.Pointer[slot]
	// body executes the task: a Future's is the caller's function itself
	// (futureBody), a Stream's a zero-size value (streamBody). Both are
	// pointer-shaped or empty, so storing one in the interface allocates
	// nothing. A future whose body panicked or was cancelled has its panic
	// value here once the body has run (see failed).
	body taskBody
}

// setID gives an unpublished task its ID, created and untouched.
func (t *task) setID(id uint64) { t.status.Store(id << idShift) }

// id returns the task's ID.
func (t *task) id() uint64 { return t.status.Load() >> idShift }

// unstarted reports that nobody has claimed the task's body yet.
func (t *task) unstarted() bool { return t.status.Load()&stateMask == stateCreated }

// isDone reports completion. The atomic load synchronizes with complete's
// Add, so a true result makes the completer's prior writes (result, panic
// value, published counters) visible.
func (t *task) isDone() bool { return t.status.Load()&stateMask == stateDone }

// claim takes ownership of an unstarted task's body (created → running) and
// reports whether it did. It keeps the touched bit, set or not: a future that
// was touched before it started — its toucher is blocked, or is about to
// claim it itself — is claimed like any other.
func (t *task) claim() bool {
	for {
		s := t.status.Load()
		if s&stateMask != stateCreated {
			return false
		}
		if t.status.CompareAndSwap(s, s|stateRunning) {
			return true
		}
	}
}

// spendTouch sets the single-touch latch and reports whether this call was
// the one that spent it. Or, not a store: it must not disturb a claim or a
// completion landing on the same word.
func (t *task) spendTouch() bool { return t.status.Or(stateTouched)&stateTouched == 0 }

// complete publishes completion (running → done) and wakes the blocked waiter
// (see the slot handshake). Called exactly once, by whoever claimed the task.
// Add, not a store: a toucher may set the touched bit at any moment, and the
// latch and the ID have to survive.
func (t *task) complete() {
	t.status.Add(stateDone - stateRunning)
	if s := t.waiter.Load(); s != nil {
		s.wake()
	}
}

// waitDone blocks until complete, sleeping on s. It wakes a slot its install
// displaced as it leaves (see the slot handshake).
func (t *task) waitDone(s *slot) {
	if t.isDone() {
		return
	}
	prev := t.waiter.Swap(s)
	for !t.isDone() {
		<-s.ch
	}
	if prev != nil {
		prev.wake()
	}
}

// readyAt and waitAt implement awaited for a future's touch.
func (t *task) readyAt(int32) bool      { return t.isDone() }
func (t *task) waitAt(_ int32, s *slot) { t.waitDone(s) }

// taskBody is the body of a task t, which it reaches through t's embedding
// object.
type taskBody interface {
	// runTask executes the body and stores its outcome in the object that
	// embeds t; the caller, which claimed t, publishes completion afterwards
	// (task.retire). cancelled is true only when a shutdown drain is
	// delivering ErrClosed instead of running the user function (w is nil
	// then).
	runTask(t *task, w *W, cancelled bool)
}

// Runtime is a work-stealing futures scheduler. Create with New, stop with
// Shutdown. Safe for concurrent use.
//
// Layout: like W and deque.Ptr, the fields every spawn and steal reads but
// (almost) nobody writes come first, then a cache line of padding, then the
// state that submitters, parkers and finishers write — so a Submit's
// counter bump or a park never invalidates the line a worker's spawn path
// reads closed, prof and flight from.
type Runtime struct {
	workers []*W

	// discipline is the default fork discipline used by Spawn (set by
	// WithDiscipline, immutable after New).
	discipline Discipline
	// closed is written once, by Shutdown.
	closed atomic.Bool
	// term is closed once shutdown has fully quiesced (workers exited,
	// queues drained); duplicate Shutdown callers wait on it.
	term chan struct{}
	// prof is the active profiling session, nil when profiling is off (see
	// profile.go); the nil check is the entire disabled-mode overhead.
	prof atomic.Pointer[profile.Recorder]
	// flight is the always-recording bounded event log, nil unless the
	// runtime was built WithFlightRecorder (see metrics.go); like prof, the
	// nil check is the entire disabled cost — and unlike prof it is a plain
	// field, immutable after New, so the check is not even atomic.
	flight *profile.Recorder
	// tele is the always-on counter matrix (one padded row per worker plus
	// the external row teleExt); workers hold direct row pointers, so the
	// Set itself is only touched by snapshots. See internal/telemetry.
	tele    *telemetry.Set
	teleExt *telemetry.Row
	// born is when New returned; the dry path keeps its one timestamp
	// (W.pollAfter) as a duration since then. Immutable.
	born time.Time
	// solo is job 0, the job of every task outside any submitted job: ID 0,
	// rt set, no owner (see jobState.isJob). Nothing refcounts it, so every
	// spawn and run may read it and nobody writes it after New.
	solo jobState

	_ [cacheLine]byte

	mu sync.Mutex
	// idle (under mu) is the stack of the slots of the parked workers that
	// nobody has signalled yet, the one that parked last on top (see park).
	idle []*slot
	// parked is idle's height. It is written under mu but read without it by
	// push, which skips the lock entirely — the common case — when there is
	// nobody left to wake (see push for the handshake).
	parked atomic.Int32
	// taskSeq allocates task IDs for profiling traces: one at a time for
	// external spawns and job roots, a block at a time for workers
	// (W.nextTaskID).
	taskSeq atomic.Uint64
	global  deque.Locked[*task]
	wg      sync.WaitGroup
	// jobServer is the job-server state: job IDs, the admission word and the
	// root freelist (see job.go).
	jobServer
	// latencyHist and queueWaitHist aggregate per-job submit→done and
	// submit→first-execution latencies into log-bucketed histograms —
	// job-rate observations (two atomic adds each at job completion), not
	// task-rate, so they sit outside the padded counter rows.
	latencyHist   stats.Histogram
	queueWaitHist stats.Histogram
}

// W is a worker context. Task functions receive the worker executing them
// and pass it to Spawn/Touch for deque-local scheduling; a nil *W is valid
// everywhere and routes through the global queue (used by external
// goroutines).
//
// Layout: the read-mostly header fills the first two cache lines and the
// owner-written scheduling state starts the third, so a thief reading v.dq
// never touches a line the owner is hammering; the struct is a whole number
// of lines, so the allocator places it line-aligned and a
// neighboring object shares none of them (TestWorkerLayout). The per-task
// counters are an owner-local table (pend); everything else is counted
// straight into the worker's telemetry row, reached through the read-only
// tele pointer, where Stats and the /metrics scraper read without touching W
// at all.
type W struct {
	rt *Runtime
	id int
	dq *deque.Ptr[task]
	// tele is this worker's always-on counter row; set once at construction
	// and owner-incremented ever after (see internal/telemetry).
	tele *telemetry.Row
	// victims are the other workers, in worker order: the ones stealOnce
	// draws from. Immutable after New.
	victims []*W
	// slot is what the worker sleeps on, parked or blocked at a touch.
	// Immutable after New.
	slot *slot

	_ [2*cacheLine - 64]byte

	// rng is the xorshift64 state for victim selection (never zero); an
	// inline generator instead of math/rand.Rand keeps the steal path free
	// of pointer-chasing and interface calls.
	rng uint64
	// cur is the ID of the task this worker is currently executing (0 when
	// idle). Owner-written in run; read only by this worker when recording
	// profile events.
	cur uint64
	// curJob is the job of the task this worker is currently executing (the
	// runtime's job 0 when idle or outside any job; never nil). Owner-written
	// in run alongside cur; it is what spawns inherit and what touch events
	// are attributed to.
	curJob *jobState
	// idNext..idEnd is what remains of the worker's reserved block of task
	// IDs: the next spawn takes idNext+1. Owner-only (see nextTaskID).
	idNext, idEnd uint64
	// pend holds the per-task counters not yet published, all of them
	// curJob's (see publish). Owner-only.
	pend pending
	// refsHeld is what remains of the block of liveness references the worker
	// took on curJob (see refBlock), and refsDropped the references of
	// curJob's tasks it retired and has not yet returned; publish returns both
	// in one add. Owner-only.
	refsHeld, refsDropped uint16
	// jobFree is the worker's stash of recycled job-root composites — a
	// worker that performs a job's last release parks the root here
	// lock-free and donates the stash to the runtime's freelist in one lock
	// visit when full (see jobState.release). Owner-only.
	jobFree []poolableRoot
	// pollAfter, a duration since Runtime.born, is when the worker may poll
	// again after a yield that showed its P is not to spare (see
	// crowdedYield). Owner-only.
	pollAfter time.Duration

	_ [2*cacheLine - 96]byte
}

// pending is a worker's unpublished share of the per-task counters, indexed
// by telemetry counter: tasks run, steals by locality, inline touches, helped
// tasks, blocked touches and spawns by discipline (a steal attempt goes
// straight to the row, so its slot stays 0). The owner bumps them with plain
// increments and publish moves them out. Sixteen bits are enough: publication
// comes at the latest after counterLag tasks and taskIDBlock spawns, and
// after every steal, help and blocked touch.
type pending [telemetry.CSpawnsParentFirst + 1]uint16

// counterLag bounds how far a running worker's telemetry row may trail its
// pending counters: they are published at the latest every counterLag tasks
// run and every taskIDBlock spawns.
const counterLag = 256

// publish moves the pending counters out, one atomic add per counter that
// moved into the worker's telemetry row; a job keeps no counts of its own (a
// trace attributes them through Event.Job). It also settles the worker's
// liveness references on curJob: the unused rest of its block and the
// releases it deferred go back in one add, which recycles the job's root if
// it brings the count to zero. Owner-only.
//
// The publication rule. A worker publishes (1) before it makes visible the
// completion of any task it did not run as that task's own toucher or diving
// spawner — every task run from the worker loop or while helping, which
// includes every Run and job root; (2) before it blocks at a touch, and
// before it parks; (3) on entering or leaving a task of another job, so the
// pending references are always curJob's and never outlive the running
// task's liveness reference on it; (4) after counterLag tasks and
// after taskIDBlock spawns. A task run inline or dived into completes inside
// another task on the same worker, so by (1) its counts are out before that
// enclosing task's completion is. Hence a goroutine that has waited for a computation whose
// futures were all touched — Run or Job.Wait returned, a worker parked —
// reads exact counters, and a reader that synchronizes on nothing sees each
// running worker at most counterLag tasks and taskIDBlock spawns behind.
//
// Kept out of line: it runs once per stolen, helped or counterLag-th task,
// and inlined at run's two call sites it doubles the code every inline touch
// runs through.
//
//go:noinline
func (w *W) publish() {
	for c, n := range w.pend {
		if n != 0 {
			w.tele.Add(telemetry.Counter(c), int64(n))
		}
	}
	w.pend = pending{}
	if n := int64(w.refsHeld) + int64(w.refsDropped); n != 0 {
		w.refsHeld, w.refsDropped = 0, 0
		w.curJob.release(w, n)
	}
}

// refBlock is how many liveness references a worker takes on its current job
// at a time (W.refsHeld): one locked add on the job's shared line per 64
// in-job spawns instead of one per spawn. Reservations only add and deferred
// releases only wait, so jobState.refs never reads below the number of live
// references, and the root cannot recycle early.
const refBlock = 64

// taskIDBlock is how many task IDs a worker reserves from Runtime.taskSeq
// at a time: one shared-line write per 256 spawns instead of one per spawn.
const taskIDBlock = 256

// nextTaskID returns a fresh task ID from the worker's reserved block,
// reserving the next block when it runs out. Owner-only. IDs are unique
// runtime-wide and increase within a worker; across workers they do not
// follow spawn order.
func (w *W) nextTaskID() uint64 {
	if w.idNext == w.idEnd {
		w.reserveTaskIDs()
	}
	w.idNext++
	return w.idNext
}

// reserveTaskIDs takes the worker's next block of IDs from the runtime's
// counter. Every worker-local spawn and Produce draws its ID from a block, so
// this — already the spawn path's one slow step — is also where the pending
// spawn counters are published. Kept out of line so nextTaskID inlines.
//
//go:noinline
func (w *W) reserveTaskIDs() {
	w.publish()
	w.idEnd = w.rt.taskSeq.Add(taskIDBlock)
	w.idNext = w.idEnd - taskIDBlock
}

// nextRand advances the worker's xorshift64 state and returns it. Owner-only.
func (w *W) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// ID returns the worker's index.
func (w *W) ID() int { return w.id }

// Runtime returns the owning runtime.
func (w *W) Runtime() *Runtime { return w.rt }

// Workers returns the worker count.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// QueueBacklog returns the current depth of the global injection queue —
// tasks submitted from outside that no worker has picked up yet. It is a
// single atomic load (deque.Locked mirrors its size), so placement
// heuristics can read it on every routing decision; the value is a
// snapshot and may be stale by the time the caller acts on it.
func (rt *Runtime) QueueBacklog() int { return rt.global.Len() }

// Shutdown stops the workers. Tasks already running complete; tasks still
// queued are cancelled — their futures fail with ErrClosed, so a pending
// Touch panics (and RunErr returns the error) instead of hanging. For
// the common pattern, touch the computation's results first (Run touches
// the root future before returning). Idempotent, and every caller returns
// only after the runtime has fully quiesced.
func (rt *Runtime) Shutdown() {
	if rt.closed.Swap(true) {
		<-rt.term
		return
	}
	rt.mu.Lock()
	// Wake every parked worker: each sees closed and exits.
	for len(rt.idle) > 0 {
		rt.wakeOne()
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	// Cancel stragglers: tasks pushed to the global queue by external
	// goroutines racing the shutdown (their push is sequenced before our
	// closed.Swap, or their own post-push re-check sees closed and drains).
	rt.drainGlobal()
	close(rt.term)
}

// drainGlobal cancels every still-unclaimed task in the global queue.
// Concurrent calls are safe: cancellation is guarded by the task's claim
// and the locked deque serializes removal.
func (rt *Runtime) drainGlobal() {
	for {
		t, ok := rt.global.StealTop()
		if !ok {
			return
		}
		t.cancelIfUnclaimed()
	}
}

// cancelIfUnclaimed completes the task's future with ErrClosed if no worker
// has claimed it. The cancellation spends the task's liveness reference on
// its job at once, as an execution outside its job's tasks does.
func (t *task) cancelIfUnclaimed() {
	if t.claim() {
		t.body.runTask(t, nil, true)
		t.retire(nil)
	}
}

// retire ends a claimed task whose body has run (or been cancelled). A job
// root finishes its job first (latency capture, admission slot return), so a
// waiter that observes completion also sees the job's final accounting — on
// every path, including a shutdown cancellation. Then completion is
// published, and last the task's liveness reference on its job is dropped:
// after that a pooled job root may be recycled at any moment, so neither
// retire nor its caller reads the task again.
//
// A task retired inside another task of its own job — run inline, dived
// into or helped by a worker whose curJob is that job — defers the release
// to the worker's next publication. That comes at the latest as the worker
// leaves the outermost task of the job on its stack, a job switch (rule (3)
// at W.publish, job 0 included), and that task holds its own reference until
// then, so the count cannot reach zero early. Everything else releases at
// once: a task run from the worker loop or inside another job's task, a
// cancellation, and every root, which never runs inside its own job (every
// other task of the job descends from the root's run).
func (t *task) retire(w *W) {
	js := t.job
	if !js.isJob() {
		t.complete()
		return
	}
	if t.id() == js.root {
		js.finish()
	}
	t.complete()
	if w != nil && w.curJob == js {
		w.refsDropped++
		return
	}
	js.release(w, 1)
}

// push makes t available for execution, preferring w's own deque. On a
// closed runtime the task is cancelled instead (fail fast — nothing would
// ever pop it).
//
// The common case — a worker-local push with no sleeper left to wake — is
// one lock-free deque store and one atomic load of the parked count: no
// write outside the worker's own deque, no mutex, no broadcast. The mutex is
// taken only to wake one parked worker that nobody has signalled yet (one
// new task needs one worker, not the herd, and a sleeper needs one signal).
//
// No lost wakeup. The queue publication here (the deque's seq-cst bottom
// store, or the global queue's size store) precedes the parked load; a
// parking worker's parked.Add, made under mu, precedes its queue-length
// loads, and it makes that Add again before every sleep (see park).
// Seq-cst order therefore leaves three cases: this push observes parked > 0
// and, under mu, pops the parker's slot off the idle stack and sends it the
// token, which waits in the slot if the parker has not reached its receive
// yet; or the parker's Add comes after the parked load, so its queue loads
// observe the non-empty queue and it does not sleep; or the parker is not
// counted because a signaller counted it out, and then it re-checks every
// queue under mu, after the Add that counts it back in, before it sleeps
// again.
func (rt *Runtime) push(w *W, t *task) {
	if rt.closed.Load() {
		t.cancelIfUnclaimed()
		return
	}
	if w != nil && w.rt == rt {
		// A live worker drains its own deque before exiting, so local pushes
		// cannot strand.
		w.dq.PushBottom(t)
	} else {
		rt.global.PushBottom(t)
		// Re-check after the push: if the runtime closed in the window, the
		// workers may already be gone; drain so the task cannot strand. (If
		// this read still sees open, the push is sequenced before the
		// closed.Swap, and Shutdown's own final drain covers it.)
		if rt.closed.Load() {
			rt.drainGlobal()
			return
		}
	}
	if rt.parked.Load() > 0 {
		rt.signal(w, 1)
	}
}

// signal wakes up to n parked workers that nobody has signalled yet, under
// one lock acquisition, and counts the wakeups in w's row: one for a push,
// and for a SubmitAll batch of k new roots min(k, parked) decided once, not k
// lock visits. Finding fewer is benign — every worker counted by the
// lock-free parked gate was signalled, left park, or has yet to look at the
// queues before we got the lock, and each of those will see the work already
// published.
func (rt *Runtime) signal(w *W, n int) {
	signaled := 0
	rt.mu.Lock()
	for ; rt.parked.Load() > 0 && signaled < n; signaled++ {
		rt.wakeOne()
	}
	rt.mu.Unlock()
	if signaled > 0 {
		rt.teleRow(w).Add(telemetry.CWakeups, int64(signaled))
	}
}

// teleRow routes counter updates to w's row when w belongs to this runtime,
// and to the shared external row otherwise (nil workers, foreign workers) —
// the same routing push uses for the task itself.
func (rt *Runtime) teleRow(w *W) *telemetry.Row {
	if w != nil && w.rt == rt {
		return w.tele
	}
	return rt.teleExt
}

// execFlags describe the scheduling context of an execution, so run can
// perform the displacement and touch accounting while it still holds the
// task's liveness reference on its job — after the release, a pooled job
// root may be recycled at any moment, so no caller may read the task or its
// job post-run.
type execFlags uint8

const (
	// execStolen: the task came off another worker's deque (stealOnce) —
	// count and record a steal.
	execStolen execFlags = 1 << iota
	// execHelping: the task ran while its worker helped at a touch.
	execHelping
	// execInline: the task was claimed inline by its own toucher.
	execInline
	// execDive: the task is a FutureFirst spawn run by its spawner before
	// anyone else can hold the future.
	execDive
)

// run executes the claimed task t on w and retires it. All accounting — the
// pending counts and the profiler events of a steal or a help — happens while
// w.curJob is t's job, and is published, when the rule at publish calls for
// it, before retire publishes completion; so whoever waits on t finds it
// already counted, and t's events read t's job while t's liveness reference
// still holds it.
//
// An execution is counted once, as the first that applies of a steal, a help
// and an inline touch: one out-of-order execution, one measured deviation. A
// steal and a help are charged to t's job (Event.Job = t's job), not to
// whichever job the helping worker was waiting in, so per-job trace
// splitting charges each job its own displaced executions.
func (w *W) run(t *task, fl execFlags) {
	js, id := t.job, t.id()
	prev, prevJob := w.cur, w.curJob
	switched := js != prevJob
	if switched {
		w.publish()
	}
	w.cur, w.curJob = id, js
	if id == js.root {
		// First execution of the job's root (job 0's root is 0, which no task
		// has): the submit→begin delay is the job's queue wait (published
		// once — the root runs once).
		js.queueWaitNs.Store(int64(time.Since(js.submitted)))
	}
	if w.rt.recording() {
		w.rt.emit(w, profile.Event{Kind: profile.KindBegin, Task: id, Arg: -1, Job: t.jobID()})
	}
	t.body.runTask(t, w, false)
	if w.rt.recording() {
		w.rt.emit(w, profile.Event{Kind: profile.KindEnd, Task: id, Arg: -1, Job: t.jobID()})
	}
	w.pend[telemetry.CTasksRun]++
	switch {
	case fl&execStolen != 0:
		w.pend[telemetry.CSteals]++
		if w.rt.recording() {
			w.rt.emit(w, profile.Event{Kind: profile.KindSteal, Task: id, Arg: -1, Job: t.jobID()})
		}
	case fl&execHelping != 0:
		w.pend[telemetry.CHelpedTasks]++
		if w.rt.recording() {
			w.rt.emit(w, profile.Event{Kind: profile.KindHelp, Task: id, Arg: -1, Job: t.jobID()})
		}
	case fl&execInline != 0:
		w.pend[telemetry.CInlineTouches]++
	}
	if switched || fl&(execInline|execDive) == 0 || w.pend[telemetry.CTasksRun] == counterLag {
		w.publish()
	}
	w.cur, w.curJob = prev, prevJob
	t.retire(w)
}

// execCtx runs t on w, in scheduling context fl, if nobody else has claimed
// it.
func (w *W) execCtx(t *task, fl execFlags) bool {
	if !t.claim() {
		return false
	}
	w.run(t, fl)
	return true
}

// runInline is the inline path of a touch or a private wait: w claims the
// still unstarted task t, of its own runtime or another, and runs it itself.
// latch is stateTouched when the call is the future's single touch, which the
// claiming CAS then spends in the same instruction (it fails if the touch is
// already spent), and 0 for waits that do not spend it.
//
// It first takes t off its own deque when t is the bottom entry — in
// creator-touch fork-join it always is — so the deque's depth is the
// recursion depth, not the number of tasks the run has spawned: the ring
// stays small and cache-resident, thieves meet only live tasks, and no
// finished future stays pinned by a slot. A task that is not at the bottom
// (a passed future, or one a thief is taking) stays where it is, on whichever
// deque holds it. After the run the worker drops what is finished at the
// bottom of its own deque (trimDone), so such an entry goes as soon as the
// live ones above it have; popOwn's filter skips what is left. A task of
// another runtime is never on w's deque, so its PopBottomIf fails and nothing
// else in the call depends on whose task t is.
func (w *W) runInline(t *task, latch uint64) bool {
	s := t.status.Load()
	if s&stateMask != stateCreated || s&latch != 0 {
		return false
	}
	popped := w.dq.PopBottomIf(t)
	if !t.status.CompareAndSwap(s, s|stateRunning|latch) {
		// Between the load and the CAS somebody claimed t, or spent its touch.
		// In the second case t is still live — its toucher may be blocked on
		// it — and we have just taken it out of everyone's reach: put it back.
		if popped && t.unstarted() {
			w.rt.push(w, t)
		}
		return false
	}
	w.run(t, execInline)
	w.trimDone()
	return true
}

// trimDone pops the entries at the bottom of the worker's deque whose tasks
// somebody has already claimed: futures that were passed to another task and
// run inline from there, not from the bottom. Without it nothing removes them
// until the deque drains — one random-structure run of 8 414 tasks on one
// worker ended with a ring of 8 192 slots — and a thief's StealTop meets
// mostly corpses. Owner-only. A single remaining entry may go to a thief
// between the peek and the pop; the pop then fails and the loop ends.
func (w *W) trimDone() {
	for {
		t := w.dq.PeekBottom()
		if t == nil || t.unstarted() {
			return
		}
		if _, ok := w.dq.PopBottom(); !ok {
			return
		}
	}
}

// jobID returns the task's job identity for event attribution (0 = no job).
func (t *task) jobID() uint64 { return t.job.id.Load() }

// jobID returns the job identity of the worker's current task (0 = none).
func (w *W) jobID() uint64 { return w.curJob.id.Load() }

// find locates a runnable task for a worker helping at a touch: own deque
// first, then other workers' deques (stealOnce), then the injection queue.
// (The worker loop takes the same three sources in another order and at
// another pace — see dry.) fl is execStolen when the task came from
// stealOnce, the one place a steal happens, and 0 otherwise; the steal is
// counted and recorded only if the thief's claim then wins (see run — a thief
// that loses the task to an inlining toucher displaced nothing). Returns nil
// when everything is empty (a snapshot — new work may appear immediately
// after).
func (w *W) find() (t *task, fl execFlags) {
	if t = w.popOwn(); t != nil {
		return t, 0
	}
	if t, fl = w.stealOnce(); t != nil {
		return t, fl
	}
	return w.rt.popInjected(), 0
}

// popOwn pops the worker's own deque down to its first live task. Owner-only.
func (w *W) popOwn() *task {
	for {
		t, ok := w.dq.PopBottom()
		if !ok {
			return nil
		}
		if t.unstarted() {
			return t
		}
	}
}

// popInjected takes the oldest live task off the injection queue, nil when
// there is none.
func (rt *Runtime) popInjected() *task {
	// Len first: an empty queue, the usual answer to a poll, costs one load
	// and leaves the queue's mutex to the submitters.
	for rt.global.Len() > 0 {
		if t, ok := rt.global.StealTop(); ok && t.unstarted() {
			return t
		}
	}
	return nil
}

// loop is the worker body: run what the own deque holds, and when it is
// empty go through the dry path (dry), which returns with a task, or with
// nothing once the worker has slept or the runtime has closed.
func (w *W) loop() {
	defer w.rt.wg.Done()
	for !w.rt.closed.Load() {
		var fl execFlags
		t := w.popOwn()
		if t == nil {
			if t, fl = w.dry(); t == nil {
				continue
			}
		}
		w.execCtx(t, fl)
	}
	w.drainCancelled()
}

// The dry path. A worker whose deque is empty looks for work in this order:
// the injection queue, then a bounded poll of the injection queue that yields
// the P between reads, with a steal sweep once the worker has been dry for
// stealPatience and then once per patience interval, and only after pollLimit
// the sleep in park. Two things are bought with it. A job that arrives within
// the window is taken by a worker that is awake, so it changes hands without
// park → wakeOne → goready → futex, which cost more than the job itself on
// a serve load. And a worker that is dry only for the instant its client
// needs to resubmit does not rob its peer of the top fragment of a job that
// is microseconds long: such a steal ends in a blocked touch and buys no
// parallelism, the kind of deviation the paper says is not worth its misses.
// Whom a sweep robs is still stealOnce's decision; only when it is made
// changed.
//
// A polling worker is awake and not counted in parked: push owes it no
// signal, and park — still the only place a worker sleeps — re-reads every
// queue under its handshake as before.

const (
	// stealPatience is how long a worker stays dry before its first steal
	// sweep, and the interval between sweeps after that. Measured on the
	// two-client closed serve loop (fib(20,12) + pipeline(512) jobs, 2 vCPUs):
	// 0 µs 59 k jobs/s, 3 µs 76.6 k, 10 µs and 30 µs the same as 3. It is also
	// the wait Go's scheduler gives a running P before taking its runnext
	// (stealRunNextG). Fork-join pays it about nine times per 5-ms run.
	stealPatience = 3 * time.Microsecond
	// pollLimit is how long a dry worker polls before it parks: no longer than
	// the wake-up it avoids (runtime.wake_us_p50 ≈ 105 µs on the same host)
	// and below the 200 µs for which bench's wake rung idles, so that rung
	// still times a real wake. The serve loop read the same for 10, 50 and
	// 200 µs.
	pollLimit = 50 * time.Microsecond
	// noSweep is the time since the last sweep of an episode that has made
	// none.
	noSweep = time.Duration(math.MaxInt64)
)

// The admission rule. Polling yields with Gosched, which is free only while
// the P has nobody else to run for long: the yielding worker goes to the back
// of the scheduler's global run queue, so where CPU-bound goroutines crowd the
// Ps it returns a time slice or several later, and a job that a parked worker
// would have been woken for at once — readied into the signaller's runnext —
// waits that long instead (TestTelemetryRaceStress, eight spinning readers:
// 0.04 s without polling, 3 s with it at GOMAXPROCS = 2, 0.2 s and 27 s at 1).
// Counting workers does not see this (the crowd need not be workers; a rule
// "busy workers < GOMAXPROCS" left the 27 s at 24), so the worker measures it:
// a yield that lasts crowdedYield or more is taken as proof that the P is not
// to spare, ends the episode, and keeps the worker from polling for
// crowdedBackoff times its length.
const (
	// crowdedYield is the scheduler's forced-preemption time slice
	// (forcePreemptNS): a goroutine that gives a P back only when sysmon takes
	// it away is CPU-bound, not a client about to block. Yields to the
	// collector's mark workers and to a load generator's punctuality spin are
	// shorter — of the serve benchmark's 2.7 million yields 2 077 exceeded the
	// poll window (2 % of the workers' time), 34 a millisecond, none this —
	// and backing off after those costs the whole gain: one worker that parks
	// makes every push of the other signal.
	crowdedYield = 10 * time.Millisecond
	// crowdedBackoff bounds what a crowded P can cost a worker at 1 % of its
	// time.
	crowdedBackoff = 100
)

// dryAction is what a dry worker does next.
type dryAction uint8

const (
	dryPoll   dryAction = iota // yield the P, then look again
	dryInject                  // take a root from the injection queue
	drySweep                   // one steal sweep over the other workers
	dryPark                    // give up the episode and sleep in park
)

// dryDecision is the dry path's policy, a pure function of how long the
// worker has been dry, how long ago its last steal sweep was (noSweep: none
// this episode), the injection queue's length and whether a P is to spare.
//
// A worker without a spare P is not admitted to the poll phase (see the
// admission rule): it does what every worker did before there was one — a
// sweep at once, then park.
func dryDecision(dryFor, sinceSweep time.Duration, injected int, spareP bool) dryAction {
	switch {
	case injected > 0:
		return dryInject
	case !spareP:
		if sinceSweep == noSweep {
			return drySweep
		}
		return dryPark
	case dryFor >= stealPatience && sinceSweep >= stealPatience:
		// Also the last thing before dryPark, however late the scheduler
		// returned the P: a worker never sleeps on a peer's backlog unswept.
		return drySweep
	case dryFor >= pollLimit:
		return dryPark
	default:
		return dryPoll
	}
}

// dryEpisode is the state of one pass through the dry path.
type dryEpisode struct {
	// spareP is the admission decision, made when the episode opens and
	// withdrawn by a slow yield.
	spareP bool
	// sweptAt is how long the worker had been dry at its last sweep (valid
	// when swept).
	sweptAt time.Duration
	swept   bool
	// polled records that the worker yielded at least once.
	polled bool
}

// dryStep makes one decision of the episode ep, dryFor into it, and carries
// it out unless it is dryPoll or dryPark, which are the caller's to perform.
func (w *W) dryStep(ep *dryEpisode, dryFor time.Duration) (t *task, fl execFlags, act dryAction) {
	sinceSweep := noSweep
	if ep.swept {
		sinceSweep = dryFor - ep.sweptAt
	}
	act = dryDecision(dryFor, sinceSweep, w.rt.global.Len(), ep.spareP)
	switch act {
	case dryInject:
		t = w.rt.popInjected()
	case drySweep:
		ep.swept, ep.sweptAt = true, dryFor
		t, fl = w.stealOnce()
	}
	return t, fl, act
}

// dry is the dry path of the worker loop. It returns a task to run and the
// context to run it in (stealOnce's flags for one a sweep took), or nil after
// the worker has been through park or has seen the runtime closed; the loop
// then looks at its own deque again.
func (w *W) dry() (t *task, fl execFlags) {
	start := time.Now()
	ep := dryEpisode{spareP: w.mayPoll(start)}
	var act dryAction
	var dryFor time.Duration
	for !w.rt.closed.Load() {
		if t, fl, act = w.dryStep(&ep, dryFor); t != nil || act == dryPark {
			break
		}
		// After a sweep or a look at the injection queue that came up empty
		// the next decision is due at once, on the same reading of the clock.
		if act == dryPoll {
			ep.polled = true
			dryFor, ep.spareP = w.yield(start, dryFor)
		}
	}
	switch {
	case t != nil && ep.polled:
		w.tele.Inc(telemetry.CPollFinds)
	case act == dryPark:
		w.park()
	}
	return t, fl
}

// pollTouch is the poll phase of a touch that found nothing to help with:
// under the same admission rule and for the same window as the worker loop's,
// the toucher yields the P and looks again. It reports true as soon as d is
// ready at arg or some deque holds something to steal, false when the toucher
// should block. The injection queue is not part of the poll: a root taken
// here runs a whole unrelated job inside the touch while the toucher's own
// job, and the client behind it, wait (with it serve-runtime read 6–10 %
// lower in 4 of 5 pairs; without it the same in 3 of 6).
func (w *W) pollTouch(d awaited, arg int32) bool {
	start := time.Now()
	spareP := w.mayPoll(start)
	for age := time.Duration(0); spareP && age < pollLimit; {
		if age, spareP = w.yield(start, age); d.readyAt(arg) || w.rt.dequeued() {
			return true
		}
	}
	return false
}

// mayPoll is the admission rule at the opening of an episode.
func (w *W) mayPoll(at time.Time) bool { return at.Sub(w.rt.born) >= w.pollAfter }

// yield gives the P away once, in an episode that began at start and whose
// age was before when the worker last read the clock. It returns the episode's
// age now and whether the P still looks spare. Gosched, not a spin: a client
// goroutine that shares this P — the one about to resubmit — runs first.
func (w *W) yield(start time.Time, before time.Duration) (now time.Duration, spareP bool) {
	runtime.Gosched()
	now = time.Since(start)
	return now, w.sawYield(start.Add(now), now-before)
}

// sawYield is the admission rule after a yield that ended at end and lasted
// took: it reports whether the P still looks spare, and if not sets the time
// before which the worker will not poll again.
func (w *W) sawYield(end time.Time, took time.Duration) (spareP bool) {
	if took < crowdedYield {
		return true
	}
	w.pollAfter = end.Sub(w.rt.born) + crowdedBackoff*took
	return false
}

// stealOnce makes one stealing sweep over the other workers and returns the
// task the thief should execute now, with the flags to execute it under (see
// stealFrom), or nil when every probe came up dry. It is the runtime's one
// steal rule, the paper's uniformly random single steal: two rounds over the
// victims from one random offset, so the first victim is uniform over the
// other workers — the thief is not among them, so there is nobody to skip,
// and no neighbour a skip would favour — the rest follow in ring order, and a
// visit takes one task from the top (stealFrom).
func (w *W) stealOnce() (*task, execFlags) {
	vs := w.victims
	n := len(vs)
	if n == 0 {
		return nil, 0
	}
	off := int(w.nextRand() % uint64(n))
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if t, fl := w.stealFrom(vs[(off+i)%n]); t != nil {
				return t, fl
			}
		}
	}
	return nil, 0
}

// stealFrom robs victim v of the one task at the top of its deque, counting
// the probe. Returns the task to execute and execStolen, or nil when the
// deque was empty, the steal lost a race, or the task at the top had already
// been claimed (a toucher ran it inline while it sat in the deque). Not a
// steal yet: that is counted when the task runs (see run).
func (w *W) stealFrom(v *W) (*task, execFlags) {
	w.tele.Inc(telemetry.CStealAttempts)
	t, ok := v.dq.StealTop()
	if !ok || !t.unstarted() {
		return nil, 0
	}
	return t, execStolen
}

// drainCancelled is the cooperative shutdown drain: the exiting worker
// cancels everything left in its own deque and in the global queue, so
// futures whose tasks will never run fail fast with ErrClosed (and touchers
// blocked on them wake) instead of hanging.
func (w *W) drainCancelled() {
	for {
		t, ok := w.dq.PopBottom()
		if !ok {
			break
		}
		t.cancelIfUnclaimed()
	}
	w.rt.drainGlobal()
}

// park blocks while every queue looks empty and the runtime is open,
// sleeping on the worker's slot with the slot on the idle stack. The parked
// increment, under mu, is ordered before the queue-length loads, pairing with
// push's publish-then-parked-load (see push for the handshake). The worker
// publishes its pending counters first (W.publish, rule 2), so an idle pool's
// telemetry rows are exact. A worker still polling in dry has not come here
// yet: it is awake, not counted in parked, and owed no signal.
//
// One signal per sleeper. The stack holds only the sleepers nobody has
// signalled yet: the signaller pops a sleeper as it wakes it (wakeOne), so
// the pushes that follow while the woken worker is on its way pass over it.
// A worker stops sleeping only once it is off the stack — a token left in its
// slot by an earlier blocked touch ends a sleep early, and it sleeps again —
// so when it finds every queue still empty it counts itself
// back in, before its queue loads, and sleeps again. Shutdown pops every
// sleeper.
//
// A queue that looks non-empty sends the worker back to find, which may
// still come up dry (the owner popped the task, another thief won it). That
// cannot repeat forever: a worker blocks at a touch or parks only after
// find drained its own deque, so a non-empty deque always belongs to a
// worker that is running and will pop it, and each dry visit to the global
// queue or to a dead entry removes what it looked at.
func (w *W) park() {
	rt := w.rt
	w.publish()
	rt.mu.Lock()
	for slept := false; ; {
		rt.parked.Add(1)
		if rt.queued() || rt.closed.Load() {
			rt.parked.Add(-1)
			break
		}
		if !slept {
			// Count the park only when the worker actually goes to sleep — work
			// that arrived between the lock-free scan and here is a near-miss,
			// not an idle event.
			slept = true
			w.tele.Inc(telemetry.CParks)
		}
		// Sleep until a wakeOne has popped the slot, which counts us out.
		w.slot.listed = true
		rt.idle = append(rt.idle, w.slot)
		for w.slot.listed {
			rt.mu.Unlock()
			<-w.slot.ch
			rt.mu.Lock()
		}
	}
	rt.mu.Unlock()
}

// wakeOne pops the worker that parked last off the idle stack and wakes it,
// counting it out, so no later push signals it again. Caller holds mu and
// has seen parked > 0.
func (rt *Runtime) wakeOne() {
	rt.parked.Add(-1)
	last := len(rt.idle) - 1
	s := rt.idle[last]
	rt.idle = rt.idle[:last]
	s.listed = false
	s.wake()
}

// queued reports whether any queue — the global one or a worker's deque —
// looks non-empty. A snapshot made of atomic loads; park is its only caller.
func (rt *Runtime) queued() bool { return rt.global.Len() > 0 || rt.dequeued() }

// dequeued reports whether some worker's deque looks non-empty, to park and
// to a polling toucher.
func (rt *Runtime) dequeued() bool {
	for _, w := range rt.workers {
		if w.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Futures.

// ErrDoubleTouch reports a violation of the single-touch discipline.
var ErrDoubleTouch = errors.New("runtime: future touched twice (single-touch discipline)")

// ErrClosed reports a spawn on (or a task cancelled by) a runtime that has
// been shut down. Touch panics with it; RunErr returns it.
var ErrClosed = errors.New("runtime: runtime is closed")

// PanicError wraps a task panic surfaced as an error by RunErr or WaitErr.
// Unwrap exposes the panic value when it is itself an error, so
// errors.Is/As reach the original.
type PanicError struct {
	// Value is the original panic value.
	Value any
}

// Error renders the wrapped panic.
func (e *PanicError) Error() string { return fmt.Sprintf("runtime: task panicked: %v", e.Value) }

// Unwrap returns the panic value when it is an error, else nil.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Future is a single-touch future of type T. Create with Spawn or
// SpawnWith; consume exactly once with Touch. Futures may be
// handed to other tasks (the Figure 5(b) pattern); whichever task touches
// first wins, a second touch panics.
//
// A Future IS its task: the schedulable unit is embedded, so one
// allocation carries the status word (task ID, scheduling state, completion,
// single-touch latch), body, and result.
//
// Layout: task is 40 bytes, its body is the caller's function itself, its
// runtime is its job's, and a panic value takes the body's place once the
// body has run, so Future[int] is 48 bytes — the allocator's 48-byte
// class (TestFutureSize); one more word lands in the 64-byte class.
type Future[T any] struct {
	task
	result T
}

// futureBody is the body of a Future[T]: the function the caller spawned. A
// func value is one pointer, so task.body holds it without allocating.
type futureBody[T any] func(*W) T

// runTask implements taskBody: it executes fn for the future whose task is
// t, storing the result, a recovered panic, or — for a shutdown cancellation
// — ErrClosed. t is at offset 0 of its Future[T] (TestTaskAtOffsetZero), and
// only a Future[T]'s task has a futureBody[T].
func (fn futureBody[T]) runTask(t *task, w *W, cancelled bool) {
	f := (*Future[T])(unsafe.Pointer(t))
	if cancelled {
		f.fail(ErrClosed)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			f.fail(r)
		}
	}()
	f.result = fn(w)
}

// failed is the body of a future whose body panicked or was cancelled: a box
// for the panic value, allocated only then. A task runs once, so its body
// field is free after the run, and the value travels to the toucher there;
// the box's type marks it. Its runTask is never called.
type failed struct{ val any }

func (*failed) runTask(*task, *W, bool) {}

// fail stores the panic value the future's touch will surface. Called only
// by whoever claimed the task, after the body ran and before it publishes
// completion, which orders the store before the toucher's load.
func (f *Future[T]) fail(r any) { f.body = &failed{val: r} }

// failure returns the stored panic value, nil when the body returned
// normally. Valid once the future is done.
func (f *Future[T]) failure() any {
	if b, ok := f.body.(*failed); ok {
		return b.val
	}
	return nil
}

// Spawn creates a future computing fn under the runtime's default fork
// discipline (ParentFirst unless WithDiscipline says otherwise). w may be
// nil (external caller). Equivalent to SpawnWith with the runtime's default.
func Spawn[T any](rt *Runtime, w *W, fn func(*W) T) *Future[T] {
	return SpawnWith(rt, w, rt.discipline, fn)
}

// SpawnWith creates a future computing fn under an explicit fork
// discipline, overriding the runtime default for this one spawn:
//
//   - ParentFirst (help-first): the child task is pushed onto the spawning
//     worker's deque (stealable) and the parent continues — the runtime
//     analogue of the parent-first policy of Theorem 10.
//   - FutureFirst (work-first): the worker dives into the child immediately
//     and the future returns already completed — the "run the future thread
//     first" choice of Theorem 8, the Join2 mechanics generalized to a
//     plain future. Go cannot suspend and expose the caller's continuation
//     the way Join2's explicit second closure is exposed, so during the
//     dive it is the worker's deque (older continuations, and everything
//     the child itself spawns) that is available for theft; the caller's
//     own continuation resumes on the same worker in exactly the sequential
//     future-first order — which is the point of the policy. When the
//     continuation is available as a closure, prefer Join2, which
//     expose it for theft as well.
//
// Cost: one allocation (the Future, which embeds its task) beyond whatever
// the fn closure itself captures; a worker-local spawn+touch pair takes no
// locks (see DESIGN.md, "hot path anatomy").
//
// On a closed runtime the future completes immediately with ErrClosed
// (Touch panics with it, RunErr returns it) — spawns never strand on a
// dead queue. The chosen discipline is recorded in profiling traces per
// spawn, so reconstruction can attribute deviations to policy choice.
func SpawnWith[T any](rt *Runtime, w *W, d Discipline, fn func(*W) T) *Future[T] {
	if !d.Valid() {
		panic("runtime: SpawnWith(" + d.String() + ")")
	}
	f := &Future[T]{task: task{body: futureBody[T](fn)}}
	if !rt.adopt(w, &f.task, d) {
		return f
	}
	if d == FutureFirst {
		f.dive(rt, w)
		return f
	}
	rt.push(w, &f.task)
	return f
}

// adopt gives the new task t, spawned from w's context under discipline d,
// its identity — ID and job tag — counts the spawn and records it. On a
// closed runtime it cancels t instead and returns false. The part of
// SpawnWith and Produce that does not depend on the result type.
func (rt *Runtime) adopt(w *W, t *task, d Discipline) bool {
	local := w != nil && w.rt == rt
	t.job = &rt.solo
	if local {
		t.setID(w.nextTaskID())
		// A spawn from inside a job's computation belongs to that job: the
		// tag rides the task, so Event.Job attribution survives however deep
		// the computation forks. The tag is a liveness
		// reference — the job's root cannot be recycled while any of its
		// tasks is still pending (released by retire) — drawn from the
		// worker's block (refBlock). A job of another runtime, whose task
		// this worker is running as a foreign toucher, is not inherited: the
		// task's job is always of the runtime it runs on.
		if js := w.curJob; js.isJob() && js.rt == rt {
			t.job = js
			if w.refsHeld == 0 {
				js.refs.Add(refBlock)
				w.refsHeld = refBlock
			}
			w.refsHeld--
		}
	} else {
		t.setID(rt.taskSeq.Add(1))
	}
	if rt.closed.Load() {
		t.cancelIfUnclaimed()
		return false
	}
	if local {
		w.pend[telemetry.SpawnCounter(d)]++
	} else {
		rt.teleExt.Inc(telemetry.SpawnCounter(d))
	}
	rt.recordSpawn(w, t, d)
	return true
}

// dive is the FutureFirst spawn path of a future spawned on rt: run the child
// now, on the spawning worker when there is one, inline on the calling
// goroutine otherwise.
func (f *Future[T]) dive(rt *Runtime, w *W) {
	if w != nil && w.rt == rt {
		if !w.execCtx(&f.task, execDive) {
			// Unreachable in practice (the task was never published), but a
			// lost race must still complete the future.
			f.waitDone(w.slot)
		}
		return
	}
	// External caller: the dive runs on this goroutine with a nil worker,
	// so — like every nil-worker call — anything the task spawns or touches
	// is attributed to the external context (task 0) in profiling traces,
	// not to the dived task (there is no worker whose `cur` could carry the
	// attribution). Profile an external FutureFirst spawn of a nested
	// workload through Run instead if parent edges matter.
	if f.claim() {
		if rt.recording() {
			rt.emit(nil, profile.Event{Kind: profile.KindBegin, Task: f.id(), Arg: -1, Job: f.jobID()})
		}
		f.body.runTask(&f.task, nil, false)
		if rt.recording() {
			rt.emit(nil, profile.Event{Kind: profile.KindEnd, Task: f.id(), Arg: -1, Job: f.jobID()})
		}
		f.retire(nil)
	}
}

// Touch consumes the future, blocking until its value is ready. The second
// Touch on the same future panics with ErrDoubleTouch. If the future's task
// panicked, Touch re-panics with the original panic value; if the task was
// cancelled by shutdown, Touch panics with ErrClosed.
//
// A worker touching an unfinished future does not sit idle: if the future's
// task has not started, the worker runs it inline (work-first, exactly the
// "run the future thread first" choice the paper recommends); otherwise it
// helps by running other tasks, and blocks only when no work is available.
func (f *Future[T]) Touch(w *W) T {
	if !f.await(w, stateTouched) {
		panic(ErrDoubleTouch)
	}
	return f.finish()
}

// touchErr is Touch with an error surface instead of a panic surface: a
// task panic is returned as a *PanicError wrapping the original value
// (errors.Is/As reach it via Unwrap when it is an error), a shutdown
// cancellation as ErrClosed, and a second touch as ErrDoubleTouch. The
// scheduling behavior (inline, help, block) is identical to Touch.
func (f *Future[T]) touchErr(w *W) (T, error) {
	if !f.await(w, stateTouched) {
		var zero T
		return zero, ErrDoubleTouch
	}
	return f.finishErr()
}

// wait is Touch without the single-touch bookkeeping (used by Join2 and
// Scope, whose extra waits are private and must not spend the user's
// touch).
func (f *Future[T]) wait(w *W) T {
	f.await(w, 0)
	return f.finish()
}

// await blocks until the future completes, scheduling meanwhile: inline-run
// the task if unclaimed, help with other tasks, block as a last resort. It
// records the touch event with the mode that satisfied the wait. Touch-mode
// counters are credited to the touched task's job (if any); helped tasks to
// the job of the task that was actually run.
//
// latch is stateTouched when the call is the future's single touch and 0 for
// a private wait. A touch by a worker that finds the future unstarted spends
// the latch and claims the body with one CAS (runInline); every other touch
// latches first and then waits. await returns false, having waited for
// nothing, only when asked to spend a touch that was already spent.
func (f *Future[T]) await(w *W, latch uint64) bool {
	if w != nil && w.runInline(&f.task, latch) {
		w.rt.recordTouch(w, &f.task, profile.ModeInline, 0, -1)
		return true
	}
	if latch != 0 && !f.spendTouch() {
		return false
	}
	if w == nil {
		s := slots.Get().(*slot)
		f.waitDone(s)
		slots.Put(s)
		f.job.rt.recordTouch(nil, &f.task, profile.ModeExternal, 0, -1)
		return true
	}
	w.helpUntil(&f.task, &f.task, -1)
	return true
}

// helpUntil is the slow path of a worker's touch, shared by Future.await and
// Stream.Get: until d is ready at arg — t itself for a future, item arg of
// the stream whose producer is t — the worker runs other tasks, then polls
// like a dry worker, and only then blocks. It records the touch (of t, item
// arg) with the mode that satisfied the wait.
func (w *W) helpUntil(t *task, d awaited, arg int32) {
	var helps int32
	for {
		if d.readyAt(arg) {
			mode := profile.ModeReady
			if helps > 0 {
				mode = profile.ModeHelped
			}
			w.rt.recordTouch(w, t, mode, helps, arg)
			return
		}
		// Unstarted after all (runInline's CAS lost to a latch landing on the
		// word): claim it the general way. The inline credit is applied inside
		// run, within the task's job-liveness window.
		if w.execCtx(t, execInline) {
			w.rt.recordTouch(w, t, profile.ModeInline, helps, arg)
			return
		}
		if h, fl := w.find(); h != nil {
			// A stolen task is a steal, not additionally a help (see run).
			if w.execCtx(h, fl|execHelping) && fl&execStolen == 0 {
				helps++
			}
			continue
		}
		// Nothing to do. Poll before sleeping, as the worker loop does: d may
		// complete, or work to help with appear, sooner than a block and a
		// wake-up take.
		if w.pollTouch(d, arg) {
			continue
		}
		// Block until d completes, with the blocked touch published first.
		w.pend[telemetry.CBlockedTouches]++
		w.publish()
		d.waitAt(arg, w.slot)
		w.rt.recordTouch(w, t, profile.ModeBlocked, helps, arg)
		return
	}
}

// finish extracts the result of the completed future, re-panicking if the
// task panicked (or was cancelled — the panic value is then ErrClosed).
func (f *Future[T]) finish() T {
	if r := f.failure(); r != nil {
		panic(r)
	}
	return f.result
}

// finishErr extracts the result of the completed future, converting a
// captured panic into an error.
func (f *Future[T]) finishErr() (T, error) {
	if r := f.failure(); r != nil {
		var zero T
		if err, ok := r.(error); ok && errors.Is(err, ErrClosed) {
			// A cancellation is a runtime condition, not a task panic.
			return zero, err
		}
		return zero, &PanicError{Value: r}
	}
	return f.result, nil
}

// Run submits fn as the root task and blocks until it completes, returning
// its result. The root is always submitted help-first regardless of the
// runtime's default discipline: diving would run the whole computation on
// the calling goroutine, outside the worker pool. The usual entry point:
//
//	rt := runtime.New(runtime.WithWorkers(8))
//	defer rt.Shutdown()
//	sum := runtime.Run(rt, func(w *runtime.W) int { return treeSum(w, root) })
func Run[T any](rt *Runtime, fn func(*W) T) T {
	f := SpawnWith(rt, nil, ParentFirst, fn)
	return f.Touch(nil)
}

// RunErr is Run with an error surface: a panicking root task returns a
// *PanicError instead of re-panicking, and a closed runtime returns
// ErrClosed instead of hanging or panicking.
func RunErr[T any](rt *Runtime, fn func(*W) T) (T, error) {
	f := SpawnWith(rt, nil, ParentFirst, fn)
	return f.touchErr(nil)
}

// Join2 evaluates fa and fb in parallel and returns both results — the
// work-first fork: the calling worker runs fa immediately (the future
// thread), leaving fb (the explicit continuation) stealable; if nobody
// stole fb, the worker pops it right back, preserving sequential order.
// This is the runtime analogue of the future-first policy of Theorem 8 —
// and, unlike a FutureFirst SpawnWith, it genuinely exposes the
// continuation for theft, because fb is a closure the runtime can push.
//
// Trace attribution note: the spawn of fb is recorded ParentFirst. That is
// the truthful label relative to the reconstructed DAG, where the pushed
// task is modeled as the forked thread and fa is inlined into the parent —
// a simulator replaying that DAG parent-first reproduces Join2's order.
// The future-first character of Join2 lives in which side the worker runs
// first (fa, the paper's future thread), not in the push mechanics, so a
// fibjoin-style workload legitimately shows parent-first spawn counts.
func Join2[A, B any](rt *Runtime, w *W, fa func(*W) A, fb func(*W) B) (A, B) {
	fbF := SpawnWith(rt, w, ParentFirst, fb) // the pushed side of the future-first fork
	a := fa(w)
	b := fbF.wait(w)
	return a, b
}

// ---------------------------------------------------------------------------
// Stats.

// Stats is an aggregate snapshot of runtime counters.
type Stats struct {
	TasksRun       int64
	Steals         int64
	StealAttempts  int64
	InlineTouches  int64
	HelpedTasks    int64
	BlockedTouches int64
	// IntraSteals and CrossSteals are Steals split by cache locality. A
	// runtime is one steal domain, so IntraSteals equals Steals and
	// CrossSteals is 0.
	IntraSteals int64
	CrossSteals int64
}

// Stats snapshots the counters, summed over the workers' telemetry rows —
// Stats is a view over the always-on counter matrix. A steal is counted where
// the stolen task runs, and an execution is counted once, as a steal, a help
// or an inline touch (see W.run), so a profiled run's trace holds one KindSteal
// or KindHelp event per count, each tagged with its task's job (Event.Job):
// the per-job split of these totals is the trace's. Once a computation whose
// futures were all touched has been waited for (Run or Job.Wait returned) its
// tasks are all counted; while tasks are in flight TasksRun and InlineTouches
// trail each running worker by at most 256 tasks, on top of the usual skew of
// reading live counters one after another.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for _, w := range rt.workers {
		s.TasksRun += w.tele.Load(telemetry.CTasksRun)
		s.Steals += w.tele.Load(telemetry.CSteals)
		s.StealAttempts += w.tele.Load(telemetry.CStealAttempts)
		s.InlineTouches += w.tele.Load(telemetry.CInlineTouches)
		s.HelpedTasks += w.tele.Load(telemetry.CHelpedTasks)
		s.BlockedTouches += w.tele.Load(telemetry.CBlockedTouches)
	}
	s.IntraSteals = s.Steals
	return s
}

// String renders the aggregate counters.
func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d steals=%d/%d inline=%d helped=%d blocked=%d",
		s.TasksRun, s.Steals, s.StealAttempts, s.InlineTouches, s.HelpedTasks, s.BlockedTouches)
}
