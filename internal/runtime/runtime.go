// Package runtime is a real parallel work-stealing futures runtime for Go,
// implementing the discipline the paper advocates:
//
//   - futures are single-touch: touching a future twice panics, which keeps
//     the implementation simple and fast (the paper cites Blelloch &
//     Reid-Miller for exactly this simplification);
//   - futures may be passed to other tasks and touched there (the
//     Figure 5(b) pattern) — but still only once;
//   - both fork disciplines are expressible through one spawn primitive:
//     SpawnWith(rt, w, d, fn) takes an explicit policy.Discipline, Spawn
//     uses the runtime-wide default set by WithDiscipline. ParentFirst
//     (help-first) makes the child stealable and continues with the parent;
//     FutureFirst (work-first) dives into the child immediately — the
//     Join2/JoinN mechanics generalized to a plain future (see SpawnWith
//     for the continuation-theft caveat Go imposes).
//
// Workers run on dedicated goroutines, each owning a lock-free
// pointer-specialized Chase–Lev deque (top/bottom on separate cache lines);
// thieves pick victims with an inline xorshift generator, falling back to a
// global injection queue. There is one steal rule and no option to choose
// another (stealOnce): one task from the top of a victim drawn uniformly at
// random among the workers that share the thief's LLC domain, and only when
// all of those are dry the same among the workers across a cache boundary.
// Where the workers share one domain that is the paper's uniformly random
// single steal, the thief the theorems assume (WithTopology(topology.Flat(n))
// asks for it on any machine); where they do not it is the domain-tiered
// thief of the locality story. StealPolicy names which; the simulator alone
// has the other steal policies of the shared vocabulary. Workers are
// grouped into cache-locality domains by the machine topology (discovered
// from sysfs, or injected synthetically): every steal is attributed intra-
// vs cross-domain, and the parked-worker accounting is
// striped per domain. A worker with no work first polls for a few tens of
// microseconds, yielding its P between looks: it takes a job that arrives
// meanwhile without having slept, and it robs a peer only after it has been
// dry for a few microseconds, not the instant it runs out (see W.dry). Then
// it parks on its domain's condition variable, sleeping only while every
// queue looks empty; push never takes the lock unless a worker is actually
// parked (an atomic parked count gates it — a polling worker is not counted),
// and wakes exactly one worker per new task — preferring a domain-local
// sleeper — instead of broadcasting to the herd. A touch of an unfinished
// future first tries to inline-run it (if nobody started it, popping it off
// the toucher's own deque first, and dropping finished entries it exposes,
// so deques hold live tasks only), then helps by running other tasks, then
// polls like a dry worker, and only then blocks.
//
// The hot path is allocation-free past the future itself: a future IS its
// task (one allocation carries id, status word, and result slot), deque
// slots store task pointers directly (no per-push box), and scheduling
// state, completion and the single-touch latch are bits of one atomic word
// whose channel wait gate is materialized only when a toucher actually
// blocks. A worker-local spawn and inline touch also write no cache line
// other workers share: task IDs are unique but not dense in spawn order,
// because each worker draws them from the runtime's counter a block at a
// time, push reads the parked count without writing anything, and the
// per-task counters are plain fields of the worker, published to its
// telemetry row before anyone can wait for the result. See DESIGN.md, "hot
// path anatomy", for the per-operation budget.
//
// Errors and cancellation: task panics surface through Touch (re-panicking
// the original value) or TouchErr/RunErr (returned as errors, wrapping the
// panic in *PanicError). A runtime that has been Shutdown — explicitly or
// through WithContext cancellation — fails new spawns fast with ErrClosed
// and cancels still-queued tasks instead of letting touches hang on a dead
// queue.
//
// Beyond the one-computation Run entry point, the job-server layer (see
// job.go) makes the pool multi-tenant: Submit accepts concurrent root
// computations as identified jobs with per-job Stats, wall-latency capture,
// admission control (WithMaxInFlight, ErrSaturated), and per-job profiler
// attribution (Event.Job), so each in-flight computation's deviations can
// be checked against its own envelope.
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

	"futurelocality/internal/deque"
	"futurelocality/internal/profile"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// cacheLine is the padding unit separating fields written by different
// cores (64 bytes on amd64/arm64).
const cacheLine = 64

// A task's status word. The low two bits are the scheduling state, which only
// moves forward — created → running → done — and the next bit up is the
// single-touch latch of the future the task computes, which is set once and
// never cleared:
//
//	bit 2     bits 1..0
//	touched   0 created   published, nobody has claimed the body
//	          1 running   one worker owns the body (claim: CAS created → running)
//	          2 done      result and panic value published (complete: Add(1))
//
// One word instead of three (state, done flag, latch) is what lets a worker's
// touch of an unstarted future claim the body and spend the touch with a
// single CAS (created → running|touched), and lets completion be a single
// Add that keeps a latch another goroutine sets at the same moment. Every
// access is a sequentially consistent atomic, which the lost-wakeup argument
// at wakeWaiters depends on.
const (
	stateCreated uint32 = iota
	stateRunning
	stateDone
	stateMask    uint32 = 3
	stateTouched uint32 = 4
)

// waitGate is what a task's or a stream cell's waiters block on, and — for a
// future — where a panic value (ErrClosed after a cancellation) travels from
// the completer to the toucher. It is allocated only when a toucher actually
// has to block, or when the body panics or is cancelled: the common case,
// an inline run or a touch of a finished future, never sees one.
type waitGate struct {
	ch chan struct{}
	// panicked is written by the completer before it publishes completion
	// and read by touchers after they observe it; the completion atomic
	// orders the two.
	panicked any
}

// materialize returns the gate behind p, installing a fresh one if there is
// none. Any goroutine; all callers agree on one gate.
func materialize(p *atomic.Pointer[waitGate]) *waitGate {
	if g := p.Load(); g != nil {
		return g
	}
	g := &waitGate{ch: make(chan struct{})}
	if p.CompareAndSwap(nil, g) {
		return g
	}
	return p.Load()
}

// The lazy gate's handshake, shared by tasks and stream cells. The completer
// publishes done — an atomic write to its own word — and then calls
// wakeWaiters, which loads the gate; a waiter that has seen done unset calls
// blockUntil, which installs the gate and then loads done again. All four
// accesses are sequentially consistent, so no wakeup is lost (Dekker): either
// the completer's load sees the gate and closes it, or the waiter's install
// comes after that load — hence after done was published — and its re-check
// sees done and does not sleep.

// wakeWaiters closes the gate behind p if a waiter materialized one. Call
// exactly once, after publishing done.
func wakeWaiters(p *atomic.Pointer[waitGate]) {
	if g := p.Load(); g != nil {
		close(g.ch)
	}
}

// blockUntil sleeps on the gate behind p until the completer closes it,
// unless done already holds once the gate is installed. Only this slow path
// allocates the gate (shared by all waiters).
func blockUntil(p *atomic.Pointer[waitGate], done func() bool) {
	if g := materialize(p); !done() {
		<-g.ch
	}
}

// completion is a stream cell's completion word: an atomic flag, the cell's
// single-touch latch, and a lazily materialized wait gate. A produced item
// costs its consumer one atomic load and never allocates; the gate exists
// only when a consumer actually has to block. (A future needs no separate
// completion: its flag and latch are bits of its task's status word.)
type completion struct {
	done atomic.Uint32
	// touched is the single-touch latch of the cell's item. It lives here, in
	// what would otherwise be padding before gate.
	touched atomic.Bool
	gate    atomic.Pointer[waitGate]
}

// isDone reports completion. The atomic load synchronizes with complete's
// store, so a true result makes the producer's prior writes (the item, the
// panic point) visible.
func (c *completion) isDone() bool { return c.done.Load() != 0 }

// complete publishes completion and wakes blocked waiters (see wakeWaiters).
// Must be called exactly once.
func (c *completion) complete() {
	c.done.Store(1)
	wakeWaiters(&c.gate)
}

// waitDone blocks until complete.
func (c *completion) waitDone() {
	if !c.isDone() {
		blockUntil(&c.gate, c.isDone)
	}
}

// awaited is what a helping toucher waits for (see W.helpUntil): a task — a
// future's touch — or one cell of a stream.
type awaited interface {
	isDone() bool
	waitDone()
}

// task is the schedulable unit — embedded directly in Future and Stream, so
// spawning allocates no separate task object, no closure wrapping the body,
// and no done channel: one allocation carries id, status word and the body's
// result slot. 48 bytes (TestFutureSize).
type task struct {
	// id identifies the task in profiling traces (unique, from
	// Runtime.taskSeq, starting at 1; 0 is the external context). Workers
	// draw IDs in blocks (see W.nextTaskID), so IDs are not dense in spawn
	// order across workers.
	id uint64
	// state is the status word: scheduling state, completion and the
	// single-touch latch (see stateCreated).
	state atomic.Uint32
	// stolenCross marks a stolen task that crossed a locality-domain (LLC)
	// boundary — the expensive kind of steal the paper's miss bound prices.
	// A plain field, not an atomic: the thief writes it between taking the
	// task off the victim's deque and claiming it, and reads it back, if its
	// claim wins, when it counts the steal (recordSteal). Nobody else reads it.
	// It shares a word with state.
	stolenCross bool
	// job is the submitted job this task belongs to (nil for job-less work
	// such as Run roots). Set once before the task is published — at Submit
	// for a job root, inherited from the spawning worker's current job for
	// everything the job's computation spawns — and read through the same
	// publication edges as the body, so no atomics are needed. It is what
	// threads per-job identity into Stats counters and profiler events.
	job *jobState
	// gate is nil until a toucher blocks on the task or its body panics or
	// is cancelled (see waitGate). A Stream's producer task never gets one:
	// consumers wait on cells.
	gate atomic.Pointer[waitGate]
	// runner executes the task body; it is the embedding object (a *Future
	// or *Stream), stored as an interface so run needs no per-spawn
	// closure. Assigning the pointer allocates nothing.
	runner taskRunner
}

// unstarted reports that nobody has claimed the task's body yet.
func (t *task) unstarted() bool { return t.state.Load()&stateMask == stateCreated }

// isDone reports completion. The atomic load synchronizes with complete's
// Add, so a true result makes the completer's prior writes (result, panic
// value, published counters) visible.
func (t *task) isDone() bool { return t.state.Load()&stateMask == stateDone }

// claim takes ownership of an unstarted task's body (created → running) and
// reports whether it did. It keeps the touched bit, set or not: a future that
// was touched before it started — its toucher is blocked, or is about to
// claim it itself — is claimed like any other.
func (t *task) claim() bool {
	for {
		s := t.state.Load()
		if s&stateMask != stateCreated {
			return false
		}
		if t.state.CompareAndSwap(s, s|stateRunning) {
			return true
		}
	}
}

// spendTouch sets the single-touch latch and reports whether this call was
// the one that spent it. Or, not a store: it must not disturb a claim or a
// completion landing on the same word.
func (t *task) spendTouch() bool { return t.state.Or(stateTouched)&stateTouched == 0 }

// complete publishes completion (running → done) and wakes blocked waiters
// (see wakeWaiters). Called exactly once, by whoever claimed the task. Add,
// not a store: a toucher may set the touched bit at any moment, and the latch
// has to survive.
func (t *task) complete() {
	t.state.Add(stateDone - stateRunning)
	wakeWaiters(&t.gate)
}

// waitDone blocks until complete.
func (t *task) waitDone() {
	if !t.isDone() {
		blockUntil(&t.gate, t.isDone)
	}
}

// taskRunner is implemented by the types that embed task.
type taskRunner interface {
	// runTask executes the body and stores its outcome; the caller, which
	// claimed the task, publishes completion afterwards (task.retire).
	// cancelled is true only when a shutdown drain is delivering ErrClosed
	// instead of running the user function (w is nil then).
	runTask(w *W, cancelled bool)
}

// Runtime is a work-stealing futures scheduler. Create with New, stop with
// Shutdown (or a cancelled WithContext context). Safe for concurrent use.
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
	// topo is the cache topology the workers are assigned onto (discovered
	// from sysfs or injected by WithTopology) and assign the resulting
	// worker→domain striping. Both immutable after New.
	topo   *topology.Topology
	assign *topology.Assignment
	// domainConds stripes the parked-worker accounting per locality domain:
	// one condition variable (sharing mu) plus a sleeper count per domain,
	// so push can wake a sleeper that shares the pusher's LLC instead of an
	// arbitrary one. On a flat (single-domain) topology this degenerates to
	// the one global cond the runtime always had. The slice is immutable
	// after New; its elements are guarded by mu.
	domainConds []domainCond
	// closed is written once, by Shutdown.
	closed atomic.Bool
	// stop is closed by Shutdown; it releases the WithContext watcher.
	stop chan struct{}
	// term is closed once shutdown has fully quiesced (workers exited,
	// queues drained); duplicate Shutdown callers wait on it.
	term chan struct{}
	// prof is the active profiling session, nil when profiling is off (see
	// profile.go); the nil check is the entire disabled-mode overhead.
	prof atomic.Pointer[profile.Recorder]
	// flight is the always-recording bounded event ring, nil unless the
	// runtime was built WithFlightRecorder (see metrics.go); like prof, the
	// nil check is the entire disabled cost — and unlike prof it is a plain
	// field, immutable after New, so the check is not even atomic.
	flight *profile.Flight
	// tele is the always-on counter matrix (one padded row per worker plus
	// the external row teleExt); workers hold direct row pointers, so the
	// Set itself is only touched by snapshots. See internal/telemetry.
	tele    *telemetry.Set
	teleExt *telemetry.Row
	// born is when New returned; the dry path keeps its one timestamp
	// (W.pollAfter) as a duration since then. Immutable.
	born time.Time

	_ [cacheLine]byte

	mu sync.Mutex
	// parked counts workers inside park. It is written under mu but read
	// without it by push, which skips the lock entirely — the common case —
	// when nobody is parked (see push for the handshake).
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

// domainCond is one locality domain's parking stripe: a condition variable
// sharing the runtime mutex plus the count of workers asleep on it (guarded
// by that mutex — the lock-free gate stays the runtime-wide atomic parked
// count).
type domainCond struct {
	cond   *sync.Cond
	parked int32
}

// W is a worker context. Task functions receive the worker executing them
// and pass it to Spawn/Touch for deque-local scheduling; a nil *W is valid
// everywhere and routes through the global queue (used by external
// goroutines).
//
// Layout: the read-mostly header fills the first two cache lines and the
// owner-written scheduling state starts the third, so a thief reading
// v.dq or v.domain never touches a line the owner is hammering; the struct is
// a whole number of lines, so the allocator places it line-aligned and a
// neighboring object shares none of them (TestWorkerLayout). The counters
// that move once per task are plain owner-local fields (pend); everything
// else is counted straight into the worker's telemetry row, reached through
// the read-only tele pointer, where Stats and the /metrics scraper read
// without touching W at all.
type W struct {
	rt *Runtime
	id int
	dq *deque.Ptr[task]
	// tele is this worker's always-on counter row; set once at construction
	// and owner-incremented ever after (see internal/telemetry).
	tele *telemetry.Row
	// domain is this worker's locality-domain ID under the runtime's
	// topology assignment; peers are the other workers of the same domain
	// and remote the workers across an LLC boundary — the two victim tiers
	// of stealOnce, precomputed so the steal path never consults the
	// topology. All immutable after New (read-mostly, so they live in the
	// header section).
	domain int
	peers  []*W
	remote []*W

	_ [2*cacheLine - 88]byte

	// rng is the xorshift64 state for victim selection (never zero); an
	// inline generator instead of math/rand.Rand keeps the steal path free
	// of pointer-chasing and interface calls.
	rng uint64
	// cur is the ID of the task this worker is currently executing (0 when
	// idle). Owner-written in run; read only by this worker when recording
	// profile events.
	cur uint64
	// curJob is the job of the task this worker is currently executing (nil
	// outside any job). Owner-written in run alongside cur; it is what
	// spawns inherit and what touch events are attributed to.
	curJob *jobState
	// idNext..idEnd is what remains of the worker's reserved block of task
	// IDs: the next spawn takes idNext+1. Owner-only (see nextTaskID).
	idNext, idEnd uint64
	// pend holds the per-task counters not yet published to tele (see
	// publish). Owner-only.
	pend pending
	// jobFree is the worker's stash of recycled job-root composites — a
	// worker that performs a job's last release parks the root here
	// lock-free and donates the stash to the runtime's freelist in one lock
	// visit when full (see jobState.release). Owner-only.
	jobFree []poolableRoot
	// pollAfter, a duration since Runtime.born, is when the worker may poll
	// again after a yield that showed its P is not to spare (see
	// crowdedYield). Owner-only.
	pollAfter time.Duration

	_ [2*cacheLine - 88]byte
}

// pending is a worker's unpublished share of the four counters that move
// once per task: tasks run, inline touches, and spawns by discipline. The
// owner bumps them with plain increments and publish folds them into the
// telemetry row.
type pending struct {
	ran, inlined uint32
	spawned      [2]uint32 // indexed by Discipline
}

// counterLag bounds how far a running worker's telemetry row may trail its
// pending counters: they are published at the latest every counterLag tasks
// run and every taskIDBlock spawns.
const counterLag = 256

// publish folds the pending counters into the worker's telemetry row, one
// atomic add per counter that moved. Owner-only.
//
// The publication rule. A worker publishes (1) before it makes visible the
// completion of any task it did not run as that task's own toucher or diving
// spawner — every task run from the worker loop or while helping, which
// includes every Run and job root; (2) before it blocks at a touch, and
// before it parks; (3) after counterLag tasks and after taskIDBlock spawns.
// A task run inline or dived into completes inside another task on the same
// worker, so by (1) its counts are out before that enclosing task's
// completion is. Hence a goroutine that has waited for a computation whose
// futures were all touched — Run or Job.Wait returned, a worker parked —
// reads exact counters, and a reader that synchronizes on nothing sees each
// running worker at most counterLag tasks and taskIDBlock spawns behind.
func (w *W) publish() {
	if n := w.pend.ran; n != 0 {
		w.tele.Add(telemetry.CTasksRun, int64(n))
	}
	if n := w.pend.inlined; n != 0 {
		w.tele.Add(telemetry.CInlineTouches, int64(n))
	}
	for d, n := range w.pend.spawned {
		if n != 0 {
			w.tele.Add(telemetry.SpawnCounter(Discipline(d)), int64(n))
		}
	}
	w.pend = pending{}
}

// countRun counts one executed task in the pending counters and reports
// whether the rule at publish now calls for publication. Owner-only: two
// plain increments and a compare, no atomic.
func (w *W) countRun(fl execFlags) (due bool) {
	w.pend.ran++
	if fl&execInline != 0 {
		w.pend.inlined++
	}
	return fl&(execInline|execDive) == 0 || w.pend.ran == counterLag
}

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

// Discipline returns the runtime-wide default fork discipline (see
// WithDiscipline).
func (rt *Runtime) Discipline() Discipline { return rt.discipline }

// StealPolicy names the runtime's one steal rule (stealOnce) in the shared
// policy vocabulary, read off where the workers landed: RandomSingle when
// they all share one locality domain — nobody has a remote tier, so a victim
// is uniform among the others — and Hierarchical when they span several.
// Steal events are stamped with it and the envelope check is asked about it.
func (rt *Runtime) StealPolicy() StealPolicy {
	if len(rt.workers[0].remote) == 0 {
		return RandomSingle
	}
	return Hierarchical
}

// Closed reports whether the runtime has been shut down (explicitly or by
// context cancellation). Spawns on a closed runtime fail fast: their
// futures complete with ErrClosed.
func (rt *Runtime) Closed() bool { return rt.closed.Load() }

// Shutdown stops the workers. Tasks already running complete; tasks still
// queued are cancelled — their futures fail with ErrClosed, so a pending
// Touch panics (and TouchErr returns the error) instead of hanging. For
// the common pattern, touch the computation's results first (Run touches
// the root future before returning). Idempotent, and every caller —
// including one racing the WithContext watcher's own shutdown — returns
// only after the runtime has fully quiesced.
func (rt *Runtime) Shutdown() {
	if rt.closed.Swap(true) {
		<-rt.term
		return
	}
	close(rt.stop)
	rt.mu.Lock()
	for i := range rt.domainConds {
		rt.domainConds[i].cond.Broadcast()
	}
	// Queued SubmitWait callers must observe the close and return ErrClosed
	// instead of waiting for slots on a server that will never drain.
	rt.slotCond.Broadcast()
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
// its job, exactly as an execution would.
func (t *task) cancelIfUnclaimed() {
	if t.claim() {
		t.runner.runTask(nil, true)
		t.retire(nil)
	}
}

// retire ends a claimed task whose body has run (or been cancelled). A job
// root finishes its job first (latency capture, admission slot return), so a waiter that observes completion also sees the job's
// final accounting — on every path, including a shutdown cancellation. Then
// completion is published, and last the task's liveness reference on its job
// is dropped: after that a pooled job root may be recycled at any moment, so
// neither retire nor its caller reads the task again.
func (t *task) retire(w *W) {
	js := t.job
	if js != nil && t.id == js.root {
		js.finish()
	}
	t.complete()
	if js != nil {
		js.release(w)
	}
}

// push makes t available for execution, preferring w's own deque. On a
// closed runtime the task is cancelled instead (fail fast — nothing would
// ever pop it).
//
// The common case — a worker-local push with no worker parked — is one
// lock-free deque store and one atomic load of the parked count: no write
// outside the worker's own deque, no mutex, no broadcast. The mutex is taken
// only to Signal one parked worker (one new task needs one worker, not the
// herd).
//
// No lost wakeup. The queue publication here (the deque's seq-cst bottom
// store, or the global queue's size store) precedes the parked load; a
// parking worker's parked.Add, made under mu, precedes its queue-length
// loads (see park). Seq-cst order therefore leaves two cases: this push
// observes parked > 0 and signals under mu — which it can only acquire once
// the parker is inside Wait, or has already left park — or the parker
// observes the non-empty queue and does not sleep.
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
		rt.signalOne(w)
	}
}

// signalOne wakes one parked worker, preferring a sleeper in the pushing
// worker's own locality domain: the woken worker's likeliest next pop is
// the task just pushed (or a steal from the pusher's deque), so a
// domain-local wakeup keeps that handoff inside the shared LLC. It scans
// the other domains' stripes only when the local one is empty; finding no
// sleeper at all is benign — every worker counted by the lock-free parked
// gate left park, or has yet to look at the queues, before we got the lock,
// and either way it will see the work already published.
func (rt *Runtime) signalOne(w *W) {
	start := 0
	if w != nil && w.rt == rt {
		start = w.domain
	}
	signaled := false
	rt.mu.Lock()
	n := len(rt.domainConds)
	for i := 0; i < n; i++ {
		if d := &rt.domainConds[(start+i)%n]; d.parked > 0 {
			d.cond.Signal()
			signaled = true
			break
		}
	}
	rt.mu.Unlock()
	if signaled {
		rt.teleRow(w).Inc(telemetry.CWakeups)
	}
}

// signalN wakes up to n parked workers under one lock acquisition — the
// batched analogue of signalOne, used by SubmitAll: a batch of k new roots
// warrants min(k, parked) wakeups decided once, not k lock visits.
func (rt *Runtime) signalN(n int) {
	if n <= 0 {
		return
	}
	signaled := 0
	rt.mu.Lock()
	for i := 0; i < len(rt.domainConds) && signaled < n; i++ {
		d := &rt.domainConds[i]
		for j := int32(0); j < d.parked && signaled < n; j++ {
			d.cond.Signal()
			signaled++
		}
	}
	rt.mu.Unlock()
	if signaled > 0 {
		rt.teleExt.Add(telemetry.CWakeups, int64(signaled))
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
// root may be recycled at any moment, so no caller may read the task or
// credit its job post-run.
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

// execCtx runs t on w, in scheduling context fl, if nobody else has claimed
// it.
func (w *W) execCtx(t *task, fl execFlags) bool {
	if !t.claim() {
		return false
	}
	w.run(t, fl)
	return true
}

// run executes the claimed task t on w and retires it. All accounting — the
// owner-local counters, the context-dependent inline/steal/help credits and
// their profiler events — happens before retire publishes completion, so
// whoever waits on t finds it already counted.
func (w *W) run(t *task, fl execFlags) {
	js := t.job
	prev, prevJob := w.cur, w.curJob
	w.cur, w.curJob = t.id, js
	if js != nil {
		js.tasksRun.Add(1)
		if t.id == js.root {
			// First execution of the job's root: the submit→begin delay is
			// the job's queue wait (published once — the root runs once).
			js.queueWaitNs.Store(int64(time.Since(js.submitted)))
		}
	}
	if w.rt.recording() {
		w.record(profile.Event{Kind: profile.KindBegin, Task: t.id, Arg: -1, Job: t.jobID()})
	}
	t.runner.runTask(w, false)
	if w.rt.recording() {
		w.record(profile.Event{Kind: profile.KindEnd, Task: t.id, Arg: -1, Job: t.jobID()})
	}
	w.cur, w.curJob = prev, prevJob
	if fl&execInline != 0 && js != nil {
		js.inline.Add(1)
	}
	if fl&execHelping != 0 {
		w.tele.Inc(telemetry.CHelpedTasks)
	}
	if fl&execStolen != 0 {
		// A stolen task is charged as a steal, not additionally as a help —
		// one out-of-order execution, one measured deviation.
		w.recordSteal(t)
	} else if fl&execHelping != 0 {
		w.recordHelp(t)
	}
	if w.countRun(fl) {
		w.publish()
	}
	t.retire(w)
}

// runInline is the inline path of a touch or a private wait: w claims the
// still unstarted task t of runtime rt and runs it itself. latch is
// stateTouched when the call is the future's single touch, which the claiming
// CAS then spends in the same instruction (it fails if the touch is already
// spent), and 0 for waits that do not spend it.
//
// It first takes t off its own deque when t is the bottom entry — in
// creator-touch fork-join it always is — so the deque's depth is the
// recursion depth, not the number of tasks the run has spawned: the ring
// stays small and cache-resident, thieves meet only live tasks, and no
// finished future stays pinned by a slot. A task that is not at the bottom
// (a passed future, or one a thief is taking) stays where it is, on whichever
// deque holds it. After the run the worker drops what is finished at the
// bottom of its own deque (trimDone), so such an entry goes as soon as the
// live ones above it have; popOwn's filter skips what is left.
func (w *W) runInline(t *task, rt *Runtime, latch uint32) bool {
	s := t.state.Load()
	if s&stateMask != stateCreated || s&latch != 0 {
		return false
	}
	popped := w.rt == rt && w.dq.PopBottomIf(t)
	if !t.state.CompareAndSwap(s, s|stateRunning|latch) {
		// Between the load and the CAS somebody claimed t, or spent its touch.
		// In the second case t is still live — its toucher may be blocked on
		// it — and we have just taken it out of everyone's reach: put it back.
		if popped && t.unstarted() {
			rt.push(w, t)
		}
		return false
	}
	w.run(t, execInline)
	if w.rt == rt {
		w.trimDone()
	}
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
func (t *task) jobID() uint64 {
	if t.job == nil {
		return 0
	}
	return t.job.id.Load()
}

// jobID returns the job identity of the worker's current task (0 = none).
func (w *W) jobID() uint64 {
	if w.curJob == nil {
		return 0
	}
	return w.curJob.id.Load()
}

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
	if t = w.stealOnce(); t != nil {
		return t, execStolen
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

// stealOnce makes one stealing sweep over the other workers and returns the
// task the thief should execute now, or nil when every probe came up dry. It
// is the runtime's one steal rule: victims that share the thief's LLC domain
// first, and across a boundary only when all of those are dry — a cross-domain
// steal drags the task's working set through memory, the miss cost the
// paper's bound prices. Within a tier the victim is uniform (stealScan) and a
// visit takes one task from the top (stealFrom), so where all workers share
// one domain this is the paper's uniformly random single steal.
func (w *W) stealOnce() *task {
	if t := w.stealScan(w.peers); t != nil {
		return t
	}
	return w.stealScan(w.remote)
}

// stealScan probes a victim tier (the thief's domain peers, or the remote
// workers) in two rounds from one random offset: the first victim is uniform
// over the tier — the thief itself is in neither, so there is nobody to skip,
// and no neighbour a skip would favour — and the rest follow in ring order.
func (w *W) stealScan(vs []*W) *task {
	n := len(vs)
	if n == 0 {
		return nil
	}
	off := int(w.nextRand() % uint64(n))
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if t := w.stealFrom(vs[(off+i)%n]); t != nil {
				return t
			}
		}
	}
	return nil
}

// stealFrom robs victim v of the one task at the top of its deque, counting
// the probe. Returns the task to execute, marked with whether it crossed an
// LLC boundary to get here, or nil when the deque was empty, the steal lost a
// race, or the task at the top had already been claimed (a toucher ran it
// inline while it sat in the deque). Not a steal yet: that is counted when
// the task runs (recordSteal).
func (w *W) stealFrom(v *W) *task {
	w.tele.Inc(telemetry.CStealAttempts)
	t, ok := v.dq.StealTop()
	if !ok || !t.unstarted() {
		return nil
	}
	t.stolenCross = w.domain != v.domain
	return t
}

// recordHelp credits and records one task executed while helping at a
// touch: like a steal, the deviation belongs to the displaced task's job
// (Event.Job = t's job), not to whichever job the helping worker was
// waiting in — per-job trace splitting and JobStats agree on that reading.
func (w *W) recordHelp(t *task) {
	if js := t.job; js != nil {
		js.helped.Add(1)
	}
	if w.rt.recording() {
		w.record(profile.Event{Kind: profile.KindHelp, Task: t.id, Arg: -1, Job: t.jobID()})
	}
}

// recordSteal counts the steal of t, which the thief w has just executed,
// everywhere a steal is counted: the thief's locality counter (whose two
// columns are the steal count), t's job, and one KindSteal event stamped with
// the runtime's steal rule and whether the task crossed a domain boundary.
// One place and one time — run calls it before retire publishes completion —
// so Stats.Steals, the per-job counts plus job-less steals, and a whole-run
// trace's KindSteal count are the same number.
func (w *W) recordSteal(t *task) {
	w.tele.Inc(telemetry.LocalityCounter(t.stolenCross))
	if js := t.job; js != nil {
		js.steals.Add(1)
	}
	if w.rt.recording() {
		w.record(profile.Event{Kind: profile.KindSteal, Task: t.id, Arg: -1, N: 1,
			Steal: w.rt.StealPolicy(), Cross: t.stolenCross, Job: t.jobID()})
	}
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
// park → Cond.Signal → goready → futex, which cost more than the job itself on
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
		t, fl = w.stealOnce(), execStolen
	}
	return t, fl, act
}

// dry is the dry path of the worker loop. It returns a task to run and the
// context to run it in (execStolen for one a sweep took), or nil after the
// worker has been through park or has seen the runtime closed; the loop then
// looks at its own deque again.
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
// done or some deque holds something to steal, false when the toucher should
// block. The injection queue is not part of the poll: a root taken here runs
// a whole unrelated job inside the touch while the toucher's own job, and the
// client behind it, wait (with it serve-runtime read 6–10 % lower in 4 of 5
// pairs; without it the same in 3 of 6).
func (w *W) pollTouch(d awaited) bool {
	start := time.Now()
	spareP := w.mayPoll(start)
	for age := time.Duration(0); spareP && age < pollLimit; {
		if age, spareP = w.yield(start, age); d.isDone() || w.rt.dequeued() {
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
// sleeping on the worker's own domain stripe so push can prefer waking a
// cache-local sleeper. The parked increment, under mu, is ordered before
// the queue-length loads, pairing with push's publish-then-parked-load (see
// push for the handshake); the per-domain sleeper count is maintained under
// the same mutex, so signalOne's scan and this bookkeeping never disagree.
// The worker publishes its pending counters first (W.publish, rule 2), so an
// idle pool's telemetry rows are exact. A worker still polling in dry has not
// come here yet: it is awake, not counted in parked, and owed no signal.
//
// A queue that looks non-empty sends the worker back to find, which may
// still come up dry (the owner popped the task, another thief won it). That
// cannot repeat forever: a worker blocks at a touch or parks only after
// find drained its own deque, so a non-empty deque always belongs to a
// worker that is running and will pop it, and each dry visit to the global
// queue or to a dead entry removes what it looked at.
func (w *W) park() {
	rt := w.rt
	d := &rt.domainConds[w.domain]
	w.publish()
	rt.mu.Lock()
	rt.parked.Add(1)
	d.parked++
	slept := false
	for !rt.queued() && !rt.closed.Load() {
		if !slept {
			// Count the park only when the worker actually goes to sleep — work
			// that arrived between the lock-free scan and here is a near-miss,
			// not an idle event.
			slept = true
			w.tele.Inc(telemetry.CParks)
		}
		d.cond.Wait()
	}
	d.parked--
	rt.parked.Add(-1)
	rt.mu.Unlock()
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
// been shut down — explicitly via Shutdown or through WithContext
// cancellation. Touch panics with it; TouchErr and RunErr return it.
var ErrClosed = errors.New("runtime: runtime is closed")

// PanicError wraps a task panic surfaced as an error by TouchErr/RunErr.
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
// SpawnWith; consume exactly once with Touch (or TouchErr). Futures may be
// handed to other tasks (the Figure 5(b) pattern); whichever task touches
// first wins, a second touch panics.
//
// A Future IS its task: the schedulable unit is embedded, so one
// allocation carries the task identity, the status word (scheduling state,
// completion, single-touch latch), body, and result.
//
// Layout: task is 48 bytes, and a panic value lives in the task's lazily
// allocated wait gate rather than here, so Future[int] is 72 bytes — the
// allocator's 80-byte class (TestFutureSize); two more words land in the
// 96-byte class.
type Future[T any] struct {
	task
	rt     *Runtime
	fn     func(*W) T
	result T
}

// runTask implements taskRunner: it executes the future's body, storing the
// result, a recovered panic, or — for a shutdown cancellation — ErrClosed.
func (f *Future[T]) runTask(w *W, cancelled bool) {
	if cancelled {
		f.fail(ErrClosed)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			f.fail(r)
		}
	}()
	f.result = f.fn(w)
}

// fail stores the panic value the future's touch will surface. Called only
// by whoever claimed the task, before it publishes completion.
func (f *Future[T]) fail(r any) { materialize(&f.gate).panicked = r }

// failure returns the stored panic value, nil when the body returned
// normally. Valid once the future is done.
func (f *Future[T]) failure() any {
	if g := f.gate.Load(); g != nil {
		return g.panicked
	}
	return nil
}

// Spawn creates a future computing fn under the runtime's default fork
// discipline (ParentFirst unless WithDiscipline says otherwise). w may be
// nil (external caller). Equivalent to SpawnWith(rt, w, rt.Discipline(), fn).
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
//     continuation is available as a closure, prefer Join2/JoinN, which
//     expose it for theft as well.
//
// Cost: one allocation (the Future, which embeds its task) beyond whatever
// the fn closure itself captures; a worker-local spawn+touch pair takes no
// locks (see DESIGN.md, "hot path anatomy").
//
// On a closed runtime the future completes immediately with ErrClosed
// (Touch panics with it, TouchErr returns it) — spawns never strand on a
// dead queue. The chosen discipline is recorded in profiling traces per
// spawn, so reconstruction can attribute deviations to policy choice.
func SpawnWith[T any](rt *Runtime, w *W, d Discipline, fn func(*W) T) *Future[T] {
	if !d.Valid() {
		panic("runtime: SpawnWith(" + d.String() + ")")
	}
	f := &Future[T]{rt: rt, fn: fn}
	f.runner = f
	if !rt.adopt(w, &f.task, d) {
		return f
	}
	if d == FutureFirst {
		f.dive(w)
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
	if local {
		t.id = w.nextTaskID()
		// A spawn from inside a job's computation belongs to that job: the
		// tag rides the task, so per-job Stats and Event.Job attribution
		// survive however deep the computation forks. The tag is a liveness
		// reference — the job's root cannot be recycled while any of its
		// tasks is still pending (released by retire).
		if t.job = w.curJob; t.job != nil {
			t.job.refs.Add(1)
		}
	} else {
		t.id = rt.taskSeq.Add(1)
	}
	if rt.closed.Load() {
		t.cancelIfUnclaimed()
		return false
	}
	if local {
		w.pend.spawned[d]++
	} else {
		rt.teleExt.Inc(telemetry.SpawnCounter(d))
	}
	rt.recordSpawn(w, t, d)
	return true
}

// dive is the FutureFirst spawn path: run the child now, on the spawning
// worker when there is one, inline on the calling goroutine otherwise.
func (f *Future[T]) dive(w *W) {
	if w != nil && w.rt == f.rt {
		if !w.execCtx(&f.task, execDive) {
			// Unreachable in practice (the task was never published), but a
			// lost race must still complete the future.
			f.waitDone()
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
		if f.rt.recording() {
			f.rt.recordExternal(profile.Event{Kind: profile.KindBegin, Task: f.id, Arg: -1, Job: f.jobID()})
		}
		f.runTask(nil, false)
		if f.rt.recording() {
			f.rt.recordExternal(profile.Event{Kind: profile.KindEnd, Task: f.id, Arg: -1, Job: f.jobID()})
		}
		f.retire(nil)
	}
}

// Done reports whether the future has completed (without touching it).
func (f *Future[T]) Done() bool {
	return f.isDone()
}

// Touch consumes the future, blocking until its value is ready. The second
// Touch on the same future panics with ErrDoubleTouch. If the future's task
// panicked, Touch re-panics with the original panic value; if the task was
// cancelled by shutdown, Touch panics with ErrClosed (use TouchErr for an
// error-returning variant).
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

// TouchErr is Touch with an error surface instead of a panic surface: a
// task panic is returned as a *PanicError wrapping the original value
// (errors.Is/As reach it via Unwrap when it is an error), a shutdown
// cancellation as ErrClosed, and a second touch as ErrDoubleTouch. The
// scheduling behavior (inline, help, block) is identical to Touch.
func (f *Future[T]) TouchErr(w *W) (T, error) {
	if !f.await(w, stateTouched) {
		var zero T
		return zero, ErrDoubleTouch
	}
	return f.finishErr()
}

// TryTouch consumes the future only if it has already completed; ok
// reports whether the value was taken. A successful TryTouch counts as the
// single touch (a later Touch panics); an unsuccessful one does not. This
// supports opportunistic consumption patterns — e.g. draining whichever
// futures of a batch are ready before blocking on the rest — while keeping
// the discipline intact. w is the calling worker (nil for external
// goroutines) and determines which context the touch is attributed to in
// profiling traces.
func (f *Future[T]) TryTouch(w *W) (v T, ok bool) {
	if !f.isDone() {
		return v, false
	}
	if !f.spendTouch() {
		panic(ErrDoubleTouch)
	}
	if w != nil && w.rt == f.rt {
		w.recordTouch(f.id, profile.ModeReady, 0, -1)
	} else {
		f.rt.recordExternalTouch(&f.task, profile.ModeReady, -1)
	}
	return f.finish(), true
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
func (f *Future[T]) await(w *W, latch uint32) bool {
	if w != nil && w.runInline(&f.task, f.rt, latch) {
		w.recordTouch(f.id, profile.ModeInline, 0, -1)
		return true
	}
	if latch != 0 && !f.spendTouch() {
		return false
	}
	if w == nil {
		f.waitDone()
		f.rt.recordExternalTouch(&f.task, profile.ModeExternal, -1)
		return true
	}
	w.helpUntil(&f.task, &f.task, -1)
	return true
}

// helpUntil is the slow path of a worker's touch, shared by Future.await and
// Stream.Get: until d is done — t itself for a future, the touched cell for a
// stream whose producer is t — the worker runs other tasks, then polls like a
// dry worker, and only then blocks. It records the touch (of t, item arg)
// with the mode that satisfied the wait.
func (w *W) helpUntil(t *task, d awaited, arg int32) {
	var helps int32
	for {
		if d.isDone() {
			mode := profile.ModeReady
			if helps > 0 {
				mode = profile.ModeHelped
			}
			w.recordTouch(t.id, mode, helps, arg)
			return
		}
		// Unstarted after all (runInline's CAS lost to a latch landing on the
		// word): claim it the general way. The inline credit is applied inside
		// run, within the task's job-liveness window.
		if w.execCtx(t, execInline) {
			w.recordTouch(t.id, profile.ModeInline, helps, arg)
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
		if w.pollTouch(d) {
			continue
		}
		// Block until d completes. The blocked credit goes to the touched
		// task's job only when that is the toucher's own job (the supported
		// discipline — futures are consumed by the computation that spawned
		// them), whose liveness the running task guarantees; a foreign job may
		// already have retired and recycled, so it is skipped rather than raced.
		w.publish()
		w.tele.Inc(telemetry.CBlockedTouches)
		if js := t.job; js != nil && js == w.curJob {
			js.blocked.Add(1)
		}
		d.waitDone()
		w.recordTouch(t.id, profile.ModeBlocked, helps, arg)
		return
	}
}

// finish extracts the result, re-panicking if the task panicked (or was
// cancelled — the panic value is then ErrClosed).
func (f *Future[T]) finish() T {
	f.waitDone()
	if r := f.failure(); r != nil {
		panic(r)
	}
	return f.result
}

// finishErr extracts the result, converting a captured panic into an error.
func (f *Future[T]) finishErr() (T, error) {
	f.waitDone()
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
	return f.TouchErr(nil)
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
	// IntraSteals and CrossSteals split Steals by cache locality: whether
	// the thief shared the victim's LLC domain. Their sum equals Steals.
	IntraSteals int64
	CrossSteals int64
	PerWorker   []WorkerStats
}

// WorkerStats is one worker's counters.
type WorkerStats struct {
	ID                              int
	TasksRun, Steals, StealAttempts int64
	InlineTouches, HelpedTasks      int64
	BlockedTouches                  int64
	IntraSteals, CrossSteals        int64
}

// Stats snapshots the counters. The values are read off the telemetry rows —
// Stats is a view over the always-on counter matrix, with Steals the sum of
// its two locality columns. A steal is counted where the stolen task runs,
// before the task's completion is published (recordSteal). Once a
// computation whose futures were all touched has been waited for (Run or
// Job.Wait returned) its tasks are all counted; while tasks are in flight
// TasksRun and InlineTouches trail each running worker by at most 256 tasks
// (see W.publish), on top of the usual skew of reading live counters one
// after another.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for _, w := range rt.workers {
		intra, cross := w.tele.Load(telemetry.CStealsIntraDomain), w.tele.Load(telemetry.CStealsCrossDomain)
		ws := WorkerStats{
			ID:             w.id,
			TasksRun:       w.tele.Load(telemetry.CTasksRun),
			Steals:         intra + cross,
			StealAttempts:  w.tele.Load(telemetry.CStealAttempts),
			InlineTouches:  w.tele.Load(telemetry.CInlineTouches),
			HelpedTasks:    w.tele.Load(telemetry.CHelpedTasks),
			BlockedTouches: w.tele.Load(telemetry.CBlockedTouches),
			IntraSteals:    intra,
			CrossSteals:    cross,
		}
		s.TasksRun += ws.TasksRun
		s.Steals += ws.Steals
		s.StealAttempts += ws.StealAttempts
		s.InlineTouches += ws.InlineTouches
		s.HelpedTasks += ws.HelpedTasks
		s.BlockedTouches += ws.BlockedTouches
		s.IntraSteals += ws.IntraSteals
		s.CrossSteals += ws.CrossSteals
		s.PerWorker = append(s.PerWorker, ws)
	}
	return s
}

// String renders the aggregate counters.
func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d steals=%d/%d (intra=%d cross=%d) inline=%d helped=%d blocked=%d",
		s.TasksRun, s.Steals, s.StealAttempts, s.IntraSteals, s.CrossSteals,
		s.InlineTouches, s.HelpedTasks, s.BlockedTouches)
}

// Topology returns the cache topology the runtime's workers are assigned
// onto (see WithTopology; defaults to the host topology discovered from
// sysfs, or a flat fallback).
func (rt *Runtime) Topology() *topology.Topology { return rt.topo }

// DomainAssignment returns each worker's locality-domain ID (index =
// worker ID) — the sim.Config.Domains shape, so a profiler replay can run
// under the same striping the real run had.
func (rt *Runtime) DomainAssignment() []int {
	out := make([]int, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = w.domain
	}
	return out
}

// NumDomains returns the locality-domain count of the runtime's topology
// assignment.
func (rt *Runtime) NumDomains() int { return len(rt.domainConds) }
