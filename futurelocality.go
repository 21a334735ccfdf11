package futurelocality

import (
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
	"futurelocality/internal/shard"
	"futurelocality/internal/topology"
)

// ---------------------------------------------------------------------------
// Computation-DAG model (Section 2) and structure classes (Section 4).

type (
	// Graph is an immutable future-parallel computation DAG.
	Graph = dag.Graph
	// Builder constructs computation DAGs program-style.
	Builder = dag.Builder
	// BlockID identifies the memory block a node accesses.
	BlockID = dag.BlockID
	// Class is the verdict of Classify against Definitions 1, 2, 3, 13, 17.
	Class = dag.Class
	// Discipline is the fork-discipline vocabulary shared by the simulator,
	// the runtime and the profiler: which side of a fork the executing
	// processor runs first. The same FutureFirst/ParentFirst constants
	// configure AnalyzeOptions.Policy, WithDiscipline and SpawnWith.
	Discipline = dag.Discipline
)

// NewBuilder returns an empty Builder with a main thread ready for nodes.
func NewBuilder() *Builder { return dag.NewBuilder() }

// Classify evaluates the paper's structure definitions on g.
func Classify(g *Graph) Class { return dag.Classify(g) }

// Fork disciplines (Sections 5.1 and 5.2) — one vocabulary for the
// simulator and the runtime.
const (
	// FutureFirst runs the future thread first at each fork (Theorem 8's
	// policy — the one the paper recommends).
	FutureFirst = dag.FutureFirst
	// ParentFirst runs the parent continuation first (Theorem 10 shows it
	// can be catastrophically worse).
	ParentFirst = dag.ParentFirst
)

// ParseDiscipline reads a discipline name ("future-first"/"parent-first"),
// for CLI flags.
func ParseDiscipline(s string) (Discipline, error) { return dag.ParseDiscipline(s) }

// ---------------------------------------------------------------------------
// Analysis against the paper's bounds.

type (
	// AnalyzeOptions configures Analyze.
	AnalyzeOptions = core.AnalyzeOptions
	// Report is Analyze's outcome: trial series plus the theorem envelope.
	Report = core.Report
	// LemmaViolation describes one failed ordering property.
	LemmaViolation = core.LemmaViolation
	// CacheModel parameterizes the cache-cost pipeline: footprint-driven
	// replay of every analyzed schedule through per-worker caches, charging
	// each its additional misses against the sequential baseline.
	CacheModel = core.CacheModel
)

// ParseCacheModel parses a cache-model spec "C[,policy][,w=N][,llc=N][,noideal]"
// as accepted by the -cachemodel CLI flags.
func ParseCacheModel(spec string) (*CacheModel, error) { return core.ParseCacheModel(spec) }

// Analyze classifies g, runs the sequential baseline and Trials random
// parallel executions, and reports deviations and additional misses against
// the O(P·T∞²) / O(C·P·T∞²) envelopes when the classification grants them.
func Analyze(g *Graph, opts AnalyzeOptions) (*Report, error) { return core.Analyze(g, opts) }

// CheckLemma4 machine-checks Lemma 4 on the sequential future-first
// execution of a structured single-touch computation.
func CheckLemma4(g *Graph) ([]LemmaViolation, error) { return core.CheckLemma4(g) }

// CheckLemma11 machine-checks Lemma 11 (and Lemma 14 for super-final
// graphs) on structured local-touch computations.
func CheckLemma11(g *Graph) ([]LemmaViolation, error) { return core.CheckLemma11(g) }

// ---------------------------------------------------------------------------
// Paper workloads.

// Pipeline builds a local-touch pipeline (Section 6.1).
func Pipeline(stages, items, workPerItem int, annotate bool) *Graph {
	g, _ := graphs.Pipeline(stages, items, workPerItem, annotate)
	return g
}

// ---------------------------------------------------------------------------
// Real work-stealing futures runtime.

type (
	// Runtime is the parallel work-stealing futures scheduler.
	Runtime = runtime.Runtime
	// W is a worker context threaded through tasks.
	W = runtime.W
	// RuntimeOption configures NewRuntime (see WithWorkers, WithDiscipline,
	// WithMaxInFlight, WithFlightRecorder).
	RuntimeOption = runtime.Option
	// Future is a single-touch future.
	Future[T any] = runtime.Future[T]
	// Sync is a structured-concurrency scope — the runtime counterpart of
	// the paper's super final node (Section 6.2).
	Sync = runtime.Sync
	// Job is the handle to one submitted root computation on the job-server
	// layer: a typed future of the result plus per-job identity and
	// wall-latency capture.
	Job[T any] = runtime.Job[T]
	// Stream is a local-touch pipeline stage (Section 6.1): one producer
	// task computing a sequence of single-touch values.
	Stream[T any] = runtime.Stream[T]
)

// ErrSaturated reports a Submit rejected by admission control (the runtime
// already has WithMaxInFlight jobs in flight).
var ErrSaturated = runtime.ErrSaturated

// NewRuntime starts a work-stealing futures runtime:
//
//	rt := futurelocality.NewRuntime(
//	    futurelocality.WithWorkers(8),
//	    futurelocality.WithDiscipline(futurelocality.FutureFirst),
//	)
//	defer rt.Shutdown()
func NewRuntime(opts ...RuntimeOption) *Runtime { return runtime.New(opts...) }

// WithWorkers sets the worker count; n <= 0 means GOMAXPROCS.
func WithWorkers(n int) RuntimeOption { return runtime.WithWorkers(n) }

// WithDiscipline sets the runtime-wide default fork discipline used by
// Spawn; per-call SpawnWith overrides it. Default ParentFirst.
func WithDiscipline(d Discipline) RuntimeOption { return runtime.WithDiscipline(d) }

// WithMaxInFlight caps concurrently in-flight submitted jobs (admission
// control): at the cap Submit rejects with ErrSaturated, and SubmitAll
// admits the prefix that fits.
func WithMaxInFlight(n int) RuntimeOption { return runtime.WithMaxInFlight(n) }

// Spawn creates a future under the runtime's default fork discipline
// (ParentFirst unless WithDiscipline says otherwise). w may be nil.
func Spawn[T any](rt *Runtime, w *W, fn func(*W) T) *Future[T] {
	return runtime.Spawn(rt, w, fn)
}

// SpawnWith creates a future under an explicit fork discipline, overriding
// the runtime default for this one spawn: ParentFirst pushes the child
// (stealable) and continues; FutureFirst dives into the child immediately
// (Theorem 8's "run the future thread first").
func SpawnWith[T any](rt *Runtime, w *W, d Discipline, fn func(*W) T) *Future[T] {
	return runtime.SpawnWith(rt, w, d, fn)
}

// Run submits fn as the root task and blocks for its result.
func Run[T any](rt *Runtime, fn func(*W) T) T { return runtime.Run(rt, fn) }

// Submit submits fn as a new job on the job-server layer and returns its
// handle without blocking — the multi-tenant entry point: many jobs share
// the worker pool, each with its own ID, latency capture, and
// profiler attribution (Event.Job). On a saturated runtime (WithMaxInFlight)
// it rejects with ErrSaturated; on a closed one, with ErrClosed. The handle
// is a value (a steady-state Submit allocates nothing, and a blocked Wait on
// a warm root allocates nothing either); copy it freely
// but consume it — Wait or WaitErr — exactly once across all copies.
func Submit[T any](rt *Runtime, fn func(*W) T) (Job[T], error) { return runtime.Submit(rt, fn) }

// SubmitAll submits a batch of roots in one admission visit: one CAS on
// the in-flight word, one freelist visit for the whole batch, one
// bounded wakeup decision — the high-rate producer's amortized entry point.
// It appends the handles to dst (pass nil, or a retained slice to keep the
// steady state allocation-free) and returns the extended slice. On a
// saturated runtime the batch is admitted as far as capacity allows:
// partial admission returns the admitted prefix alongside ErrSaturated, and
// the remainder is shed.
func SubmitAll[T any](rt *Runtime, fns []func(*W) T, dst []Job[T]) ([]Job[T], error) {
	return runtime.SubmitAll(rt, fns, dst)
}

// RunErr is Run with an error surface: a panicking root task returns a
// *PanicError instead of re-panicking; a closed runtime returns ErrClosed.
func RunErr[T any](rt *Runtime, fn func(*W) T) (T, error) { return runtime.RunErr(rt, fn) }

// Join2 evaluates two functions in parallel work-first (future-first) style.
func Join2[A, B any](rt *Runtime, w *W, fa func(*W) A, fb func(*W) B) (A, B) {
	return runtime.Join2(rt, w, fa, fb)
}

// ForEachPar runs fn for each index in [0, n) in parallel.
func ForEachPar(rt *Runtime, w *W, n, grain int, fn func(*W, int)) {
	runtime.ForEach(rt, w, n, grain, fn)
}

// Scope runs body with a fresh Sync and waits for every future spawned
// through it — side-effect futures whose only "touch" is the scope end,
// exactly the Definition 13 pattern Theorem 16 covers.
func Scope(rt *Runtime, w *W, body func(*Sync)) { runtime.Scope(rt, w, body) }

// SpawnIn spawns a value future tracked by a scope.
func SpawnIn[T any](s *Sync, fn func(*W) T) *Future[T] { return runtime.SpawnIn(s, fn) }

// Produce starts a pipeline producer computing n items (Section 6.1).
func Produce[T any](rt *Runtime, w *W, n int, fn func(*W, int) T) *Stream[T] {
	return runtime.Produce(rt, w, n, fn)
}

// ---------------------------------------------------------------------------
// Cache topology: the LLC domains a Pool carves its shards from.

// Topology is a discovered or synthetic cache-sharing hierarchy: CPUs
// grouped into LLC-sharing locality domains (internal/topology).
type Topology = topology.Topology

// SyntheticTopology builds an injectable topology from a "DxC" spec — D
// LLC domains of C CPUs each, e.g. "2x2" — for deterministic tests and
// replays independent of the machine's real hierarchy.
func SyntheticTopology(spec string) (*Topology, error) { return topology.Synthetic(spec) }

// ---------------------------------------------------------------------------
// Live execution profiler (runtime ↔ model).

type (
	// ProfileTrace is the collected event log of one profiling session
	// (Runtime.StartProfile / Runtime.StopProfile).
	ProfileTrace = profile.Trace
	// ProfileOptions configures AnalyzeProfile (and Runtime.ProfileReport).
	ProfileOptions = profile.Options
	// ProfileReport is the predicted-vs-measured outcome: reconstructed
	// class, measured deviations vs the P·T∞² envelope, and the simulator
	// replay of the same DAG.
	ProfileReport = profile.Report
)

// AnalyzeProfile reconstructs tr, classifies the DAG, counts measured
// deviations against the theorem envelope, and replays the DAG through the
// simulator — the full predicted-vs-measured report. Runtime.ProfileReport
// is the one-call variant for the common case, and Runtime.FlightEnvelope
// reads the flight window's verdict alone.
func AnalyzeProfile(tr *ProfileTrace, opts ProfileOptions) (*ProfileReport, error) {
	return profile.Analyze(tr, opts)
}

// ---------------------------------------------------------------------------
// The flight recorder (observability).

// MaxFlightWindow is the largest size WithFlightRecorder accepts (2²⁴
// events per worker).
const MaxFlightWindow = runtime.MaxFlightWindow

// WithFlightRecorder equips the runtime with an always-recording bounded
// event log (the last size events per worker, rounded up to a power of two;
// size <= 0 selects the 4096 default, and NewRuntime panics on a size above
// MaxFlightWindow). Unlike StartProfile, it runs continuously in constant
// memory from construction; Runtime.DumpFlight reconstructs the recent window
// into the standard DAG/deviation analysis on demand, and
// Runtime.WriteMetrics / Runtime.MetricsMap expose the rolling envelope
// alongside the always-on counters.
func WithFlightRecorder(size int) RuntimeOption { return runtime.WithFlightRecorder(size) }

// ---------------------------------------------------------------------------
// Sharded pool: multiple runtimes behind one job router.

type (
	// Pool is a sharded job server: S independent Runtimes — by default one
	// per LLC locality domain — behind a router with the Submit/SubmitAll surface of a single
	// runtime, least-loaded placement with a consistent-hash ring for keyed
	// submits, and an overflow exchange that forwards whole jobs (never
	// interior tasks) off saturated shards.
	Pool = shard.Pool
	// PoolOption configures NewPool.
	PoolOption = shard.Option
)

// NewPool starts a sharded pool. Defaults: one shard per LLC domain of the
// host topology, GOMAXPROCS workers split across shards, no admission cap:
//
//	p := futurelocality.NewPool(
//	    futurelocality.WithShards(2),
//	    futurelocality.WithPoolMaxInFlight(128),
//	)
//	defer p.Shutdown()
//	job, err := futurelocality.PoolSubmit(p, func(w *futurelocality.W) int { ... })
func NewPool(opts ...PoolOption) *Pool { return shard.NewPool(opts...) }

// WithShards sets the shard count; n <= 0 (default) means one per LLC
// domain of the pool topology.
func WithShards(n int) PoolOption { return shard.WithShards(n) }

// WithPoolWorkers sets the total worker count split across shards; n <= 0
// means GOMAXPROCS. Every shard keeps at least one worker.
func WithPoolWorkers(n int) PoolOption { return shard.WithWorkers(n) }

// WithPoolMaxInFlight caps total in-flight jobs across the pool, split
// across shards (admission control; n <= 0 means unlimited).
func WithPoolMaxInFlight(n int) PoolOption { return shard.WithMaxInFlight(n) }

// WithPoolTopology injects the machine topology the default shard count is
// read from: one shard per LLC domain.
func WithPoolTopology(t *Topology) PoolOption { return shard.WithTopology(t) }

// WithShardRuntimeOptions appends RuntimeOptions applied to every member
// runtime (discipline, flight recorder). The pool-managed options —
// workers, admission cap — win.
func WithShardRuntimeOptions(opts ...RuntimeOption) PoolOption {
	return shard.WithRuntimeOptions(opts...)
}

// PoolSubmit places fn on the least-loaded shard (fewest in-flight jobs,
// tiebreaking on queue backlog) and submits it as a job without blocking.
// Saturation at the placed shard triggers the overflow exchange — the whole
// job is forwarded to the least-loaded other shard — and only when that one
// refuses too does it shed with ErrSaturated. A closed pool returns
// ErrClosed. The handle is the admitting member runtime's Job.
func PoolSubmit[T any](p *Pool, fn func(*W) T) (Job[T], error) { return shard.Submit(p, fn) }

// PoolSubmitAll batch-submits on one home shard (the single-runtime
// batching contract), overflowing the remainder batch-wise to the next
// least-loaded shard on partial admission before shedding the rest.
func PoolSubmitAll[T any](p *Pool, fns []func(*W) T, dst []Job[T]) ([]Job[T], error) {
	return shard.SubmitAll(p, fns, dst)
}
