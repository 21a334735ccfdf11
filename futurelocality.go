package futurelocality

import (
	"context"
	"io"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/policy"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
	"futurelocality/internal/shard"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// ---------------------------------------------------------------------------
// Computation-DAG model (Section 2) and structure classes (Section 4).

type (
	// Graph is an immutable future-parallel computation DAG.
	Graph = dag.Graph
	// Builder constructs computation DAGs program-style.
	Builder = dag.Builder
	// Thread is a handle to one thread under construction.
	Thread = dag.Thread
	// Promise captures a mid-thread future for local-touch computations.
	Promise = dag.Promise
	// NodeID identifies a node; BlockID a memory block; ThreadID a thread.
	NodeID = dag.NodeID
	// BlockID identifies the memory block a node accesses.
	BlockID = dag.BlockID
	// ThreadID identifies a thread.
	ThreadID = dag.ThreadID
	// TouchInfo records the anatomy of one touch.
	TouchInfo = dag.TouchInfo
	// Class is the verdict of Classify against Definitions 1, 2, 3, 13, 17.
	Class = dag.Class
)

// NoBlock marks a node without a memory access.
const NoBlock = dag.NoBlock

// NewBuilder returns an empty Builder with a main thread ready for nodes.
func NewBuilder() *Builder { return dag.NewBuilder() }

// Classify evaluates the paper's structure definitions on g.
func Classify(g *Graph) Class { return dag.Classify(g) }

// WriteDOT renders g in Graphviz DOT format.
func WriteDOT(w io.Writer, g *Graph, name string) error { return dag.WriteDOT(w, g, name) }

// ---------------------------------------------------------------------------
// Scheduler simulator (Section 3).

type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimResult captures one execution. Its schedule is the one sequence
	// the nodes ran in (Order, with When its inverse) and who ran each
	// (Who); a processor's own order is the part of Order Who gives it.
	SimResult = sim.Result
	// Control drives steal victims and processor activity.
	Control = sim.Control
	// Discipline is the fork-discipline vocabulary shared by the simulator
	// and the real runtime (internal/policy): which side of a fork the
	// executing processor runs first. The same FutureFirst/ParentFirst
	// constants configure SimConfig.Policy, WithDiscipline, and SpawnWith.
	Discipline = policy.Discipline
	// ProcID identifies a simulated processor.
	ProcID = sim.ProcID
	// CacheKind selects the cache replacement policy.
	CacheKind = cache.Kind
	// Comparison packages sequential-vs-parallel accounting.
	Comparison = sim.Comparison
)

// Fork disciplines (Sections 5.1 and 5.2) — one vocabulary for the
// simulator and the runtime.
const (
	// FutureFirst runs the future thread first at each fork (Theorem 8's
	// policy — the one the paper recommends).
	FutureFirst = policy.FutureFirst
	// ParentFirst runs the parent continuation first (Theorem 10 shows it
	// can be catastrophically worse).
	ParentFirst = policy.ParentFirst
)

// ParseDiscipline reads a discipline name ("future-first"/"parent-first"),
// for CLI flags.
func ParseDiscipline(s string) (Discipline, error) { return policy.Parse(s) }

// StealPolicy is the steal-discipline vocabulary: whom a thief robs; every
// visit takes one task. It has one value, RandomSingle: the simulator's
// thief (SimConfig.Steal) and the runtime's (Runtime.StealPolicy) alike.
type StealPolicy = policy.StealPolicy

// RandomSingle steals one task from the top of a uniformly random victim —
// the parsimonious discipline of Section 3, and the one the paper's
// deviation bounds cover.
const RandomSingle = policy.RandomSingle

// Cache replacement policies; the paper's model is LRU.
const (
	LRU          = cache.LRU
	FIFO         = cache.FIFO
	SetAssocLRU  = cache.SetAssocLRU
	DirectMapped = cache.DirectMapped
)

// Simulate runs one parallel execution of g under cfg.
func Simulate(g *Graph, cfg SimConfig) (*SimResult, error) {
	eng, err := sim.New(g, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// Sequential runs the one-processor baseline execution.
func Sequential(g *Graph, policy Discipline, cacheLines int, kind CacheKind) (*SimResult, error) {
	return sim.Sequential(g, policy, cacheLines, kind)
}

// RandomControl returns the standard uniformly-random-victim control.
func RandomControl(seed int64) Control { return sim.NewRandomControl(seed) }

// Deviations counts deviations of a parallel result against a sequential
// order (Section 4's definition).
func Deviations(seqOrder []NodeID, r *SimResult) int64 { return sim.Deviations(seqOrder, r) }

// Compare computes the deviation and additional-miss account of r against
// the sequential baseline seq.
func Compare(seq, r *SimResult) Comparison { return sim.Compare(seq, r) }

// PrematureTouches counts touches reached before their future thread was
// spawned — possible only for unstructured computations (Figure 3).
func PrematureTouches(g *Graph, r *SimResult) int { return sim.PrematureTouches(g, r) }

// ---------------------------------------------------------------------------
// Analysis against the paper's bounds.

type (
	// AnalyzeOptions configures Analyze.
	AnalyzeOptions = core.AnalyzeOptions
	// Report is Analyze's outcome: trial series plus the theorem envelope.
	Report = core.Report
	// LemmaViolation describes one failed ordering property.
	LemmaViolation = core.LemmaViolation
	// ChainReport is the deviation-chain decomposition of an execution
	// (Theorem 8's counting argument, machine-checked).
	ChainReport = core.ChainReport
	// Chain is one deviation chain anchored at a steal.
	Chain = core.Chain
	// CacheModel parameterizes the cache-cost pipeline: footprint-driven
	// replay of every analyzed schedule through per-worker caches, charging
	// each its additional misses against the sequential baseline.
	CacheModel = core.CacheModel
	// CacheCost is the cache-cost verdict a CacheModel adds to a Report.
	CacheCost = core.CacheCost
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

// DeviationChains decomposes an execution's deviations into Theorem 8's
// steal-anchored chains; an empty Uncovered list certifies the proof's
// counting argument on this run.
func DeviationChains(g *Graph, seqOrder []NodeID, r *SimResult) *ChainReport {
	return core.DeviationChains(g, seqOrder, r)
}

// ---------------------------------------------------------------------------
// Paper workloads and adversarial schedules.

// RandomConfig parameterizes RandomStructured.
type RandomConfig = graphs.RandomConfig

// ForkJoinTree builds a balanced divide-and-conquer computation.
func ForkJoinTree(depth, leafWork int, annotate bool) *Graph {
	return graphs.ForkJoinTree(depth, leafWork, annotate)
}

// Fib builds the future-parallel Fibonacci DAG.
func Fib(n, cutoff int) *Graph { return graphs.Fib(n, cutoff) }

// Pipeline builds a local-touch pipeline (Section 6.1).
func Pipeline(stages, items, workPerItem int, annotate bool) *Graph {
	g, _ := graphs.Pipeline(stages, items, workPerItem, annotate)
	return g
}

// Quicksort builds an irregular randomized-quicksort fork-join DAG.
func Quicksort(n, cutoff int, seed int64, annotate bool) *Graph {
	return graphs.Quicksort(n, cutoff, seed, annotate)
}

// RandomStructured generates a random structured single-touch computation.
func RandomStructured(seed int64, cfg RandomConfig) *Graph {
	return graphs.RandomStructured(seed, cfg)
}

// ---------------------------------------------------------------------------
// Execution traces.

// WriteTraceCSV exports an execution as CSV.
func WriteTraceCSV(w io.Writer, g *Graph, r *SimResult) error { return sim.WriteCSV(w, g, r) }

// WriteTraceDOT renders an execution over the DAG, marking deviations.
func WriteTraceDOT(w io.Writer, g *Graph, r *SimResult, seqOrder []NodeID, name string) error {
	return sim.WriteDOT(w, g, r, seqOrder, name)
}

// ---------------------------------------------------------------------------
// Real work-stealing futures runtime.

type (
	// Runtime is the parallel work-stealing futures scheduler.
	Runtime = runtime.Runtime
	// W is a worker context threaded through tasks.
	W = runtime.W
	// RuntimeOption configures NewRuntime (see WithWorkers, WithSeed,
	// WithDiscipline, WithContext).
	RuntimeOption = runtime.Option
	// RuntimeStats snapshots scheduler counters.
	RuntimeStats = runtime.Stats
	// Future is a single-touch future.
	Future[T any] = runtime.Future[T]
	// PanicError wraps a task panic surfaced as an error by
	// Future.TouchErr / RunErr; Unwrap exposes the original value when it
	// is an error.
	PanicError = runtime.PanicError
	// Sync is a structured-concurrency scope — the runtime counterpart of
	// the paper's super final node (Section 6.2).
	Sync = runtime.Sync
	// Job is the handle to one submitted root computation on the job-server
	// layer: a typed future of the result plus per-job identity, stats, and
	// wall-latency capture.
	Job[T any] = runtime.Job[T]
	// JobStats is a per-job snapshot of scheduler counters and wall-clock
	// capture (the job-scoped analogue of RuntimeStats).
	JobStats = runtime.JobStats
	// Stream is a local-touch pipeline stage (Section 6.1): one producer
	// task computing a sequence of single-touch values.
	Stream[T any] = runtime.Stream[T]
)

// ErrDoubleTouch reports a violation of the single-touch discipline.
var ErrDoubleTouch = runtime.ErrDoubleTouch

// ErrClosed reports a spawn on (or a task cancelled by) a runtime that was
// shut down, explicitly or via WithContext cancellation.
var ErrClosed = runtime.ErrClosed

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

// WithSeed seeds victim selection (worker i uses seed+i); 0 means 1.
func WithSeed(seed int64) RuntimeOption { return runtime.WithSeed(seed) }

// WithDiscipline sets the runtime-wide default fork discipline used by
// Spawn; per-call SpawnWith overrides it. Default ParentFirst.
func WithDiscipline(d Discipline) RuntimeOption { return runtime.WithDiscipline(d) }

// WithTopology sets the machine topology the runtime reports
// (Runtime.Topology). It does not change scheduling: a runtime is one steal
// domain whose thief robs any other worker uniformly at random, the thief
// the theorems assume. To follow a machine's LLC domains, run a Pool
// (WithPoolTopology), one runtime per domain. Default (nil): the host
// topology discovered from sysfs, falling back to one flat domain.
func WithTopology(t *Topology) RuntimeOption { return runtime.WithTopology(t) }

// WithContext ties the runtime's lifetime to ctx: cancellation shuts the
// runtime down, failing still-queued tasks fast with ErrClosed.
func WithContext(ctx context.Context) RuntimeOption { return runtime.WithContext(ctx) }

// WithMaxInFlight caps concurrently in-flight submitted jobs (admission
// control): at the cap Submit rejects with ErrSaturated, SubmitWait queues.
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
// the worker pool, each with its own ID, Stats, latency capture, and
// profiler attribution (Event.Job). On a saturated runtime (WithMaxInFlight)
// it rejects with ErrSaturated; on a closed one, with ErrClosed. The handle
// is a value (a steady-state Submit allocates nothing, and a blocked Wait on
// a warm root allocates nothing either); copy it freely
// but consume it — Wait/WaitErr/TryWait — exactly once across all copies.
func Submit[T any](rt *Runtime, fn func(*W) T) (Job[T], error) { return runtime.Submit(rt, fn) }

// SubmitWait is Submit with queueing backpressure: it blocks while the
// runtime is saturated and returns ErrClosed if the runtime shuts down
// before a slot frees.
func SubmitWait[T any](rt *Runtime, fn func(*W) T) (Job[T], error) {
	return runtime.SubmitWait(rt, fn)
}

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

// JoinN evaluates fns in parallel and returns their results in order.
func JoinN[T any](rt *Runtime, w *W, fns ...func(*W) T) []T {
	return runtime.JoinN(rt, w, fns...)
}

// MapPar applies fn to every element in parallel (balanced fork-join).
func MapPar[T, U any](rt *Runtime, w *W, xs []T, grain int, fn func(*W, T) U) []U {
	return runtime.Map(rt, w, xs, grain, fn)
}

// ForEachPar runs fn for each index in [0, n) in parallel.
func ForEachPar(rt *Runtime, w *W, n, grain int, fn func(*W, int)) {
	runtime.ForEach(rt, w, n, grain, fn)
}

// ReducePar folds xs with an associative combiner in parallel.
func ReducePar[T any](rt *Runtime, w *W, xs []T, grain int, zero T, op func(T, T) T) T {
	return runtime.Reduce(rt, w, xs, grain, zero, op)
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

// IsForkJoin reports whether g is a strict fork-join (Cilk-style) program —
// a proper subset of structured single-touch computations.
func IsForkJoin(g *Graph) bool { return g.IsForkJoin() }

// CriticalPath returns one longest directed path of g (length == Span).
func CriticalPath(g *Graph) []NodeID { return g.CriticalPath() }

// ---------------------------------------------------------------------------
// Cache topology: the LLC domains a Pool carves its shards from.

// Topology is a discovered or synthetic cache-sharing hierarchy: CPUs
// grouped into LLC-sharing locality domains (internal/topology).
type Topology = topology.Topology

// DetectTopology discovers the host's cache-sharing hierarchy from sysfs
// (cached after the first call), falling back to one flat domain when
// discovery fails — non-Linux hosts, containers without /sys, test rigs.
func DetectTopology() *Topology { return topology.Detect() }

// SyntheticTopology builds an injectable topology from a "DxC" spec — D
// LLC domains of C CPUs each, e.g. "2x2" — for deterministic tests and
// replays independent of the machine's real hierarchy.
func SyntheticTopology(spec string) (*Topology, error) { return topology.Synthetic(spec) }

// FlatTopology returns the degenerate single-domain topology over n CPUs —
// what detection falls back to, useful as an explicit control.
func FlatTopology(n int) *Topology { return topology.Flat(n) }

// ---------------------------------------------------------------------------
// Live execution profiler (runtime ↔ model).

type (
	// ProfileTrace is the collected event log of one profiling session
	// (Runtime.StartProfile / Runtime.StopProfile).
	ProfileTrace = profile.Trace
	// ProfileRecon is the reconstruction of a session: the computation DAG
	// the run performed plus the measured deviation account.
	ProfileRecon = profile.Recon
	// ProfileTaskInfo is one row of ProfileRecon.Tasks, the reconstruction's
	// ID-sorted task table: the task's DAG thread, spawn discipline and job.
	ProfileTaskInfo = profile.TaskInfo
	// ProfileOptions configures AnalyzeProfile (and Runtime.ProfileReport).
	ProfileOptions = profile.Options
	// ProfileReport is the predicted-vs-measured outcome: reconstructed
	// class, measured deviations vs the P·T∞² envelope, and the simulator
	// replay of the same DAG.
	ProfileReport = profile.Report
	// ProfileReading is a traced run judged against the envelope: its
	// reconstruction, class, T1, T∞, t and the Verdict on its measured
	// deviations. A ProfileReport and each of its per-job verdicts embed one;
	// Runtime.FlightEnvelope returns the flight window's, the rolling
	// live-envelope gauge.
	ProfileReading = profile.Reading
)

// ErrProfileActive reports StartProfile with a session already running.
var ErrProfileActive = runtime.ErrProfileActive

// ErrNoProfile reports ProfileReport with no active session.
var ErrNoProfile = runtime.ErrNoProfile

// ReconstructProfile replays a trace into the computation DAG the profiled
// run performed (every task a thread, every Spawn a fork, every Touch a
// touch edge, stream yields as local-touch futures).
func ReconstructProfile(tr *ProfileTrace) (*ProfileRecon, error) {
	return profile.Reconstruct(tr)
}

// AnalyzeProfile reconstructs tr, classifies the DAG, counts measured
// deviations against the theorem envelope, and replays the DAG through the
// simulator — the full predicted-vs-measured report. Runtime.ProfileReport
// is the one-call variant for the common case.
func AnalyzeProfile(tr *ProfileTrace, opts ProfileOptions) (*ProfileReport, error) {
	return profile.Analyze(tr, opts)
}

// ---------------------------------------------------------------------------
// Always-on telemetry and the flight recorder (observability).

type (
	// TelemetrySnapshot is a point-in-time copy of the runtime's always-on
	// counter matrix (per-worker rows plus the external row); subtract two
	// with Sub for a rate window. Obtain one from Runtime.TelemetrySnapshot.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryCounter indexes a column of the counter matrix (tasks run,
	// steals by locality, touch modes, parks, job outcomes, ...).
	TelemetryCounter = telemetry.Counter
	// HistSnapshot is a point-in-time copy of a log-bucketed latency
	// histogram (Runtime.LatencyHist / Runtime.QueueWaitHist): mergeable,
	// with quantiles answered from bucket counts at factor-2 resolution.
	HistSnapshot = stats.HistSnapshot
)

// The counter columns of a TelemetrySnapshot (arguments to its Total and
// Worker accessors), re-exported under their internal names.
const (
	CTasksRun          = telemetry.CTasksRun
	CStealAttempts     = telemetry.CStealAttempts
	CStealsIntraDomain = telemetry.CStealsIntraDomain
	CStealsCrossDomain = telemetry.CStealsCrossDomain
	CInlineTouches     = telemetry.CInlineTouches
	CHelpedTasks       = telemetry.CHelpedTasks
	CBlockedTouches    = telemetry.CBlockedTouches
	CSpawnsFutureFirst = telemetry.CSpawnsFutureFirst
	CSpawnsParentFirst = telemetry.CSpawnsParentFirst
	CParks             = telemetry.CParks
	CWakeups           = telemetry.CWakeups
	CPollFinds         = telemetry.CPollFinds
	CJobsSubmitted     = telemetry.CJobsSubmitted
	CJobsCompleted     = telemetry.CJobsCompleted
	CJobsShed          = telemetry.CJobsShed
)

// ErrNoFlight reports a flight-recorder operation (DumpFlight,
// FlightEnvelope, FlightReport) on a runtime built without
// WithFlightRecorder.
var ErrNoFlight = runtime.ErrNoFlight

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
	// per LLC locality domain, each on a single-domain sub-topology — behind
	// a router with the Submit/SubmitWait/SubmitAll surface of a single
	// runtime, least-loaded placement with a consistent-hash ring for keyed
	// submits, and an overflow exchange that forwards whole jobs (never
	// interior tasks) off saturated shards.
	Pool = shard.Pool
	// PoolOption configures NewPool.
	PoolOption = shard.Option
	// PoolJob is a pool job handle: the member runtime's Job plus Shard(),
	// the index of the runtime that admitted and executes it.
	PoolJob[T any] = shard.Job[T]
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

// WithPoolTopology injects the machine topology shards are carved from:
// shard i is built on the single-domain carve-out of domain i mod D.
func WithPoolTopology(t *Topology) PoolOption { return shard.WithTopology(t) }

// WithShardRuntimeOptions appends RuntimeOptions applied to every member
// runtime (discipline, flight recorder, seed, context). The
// pool-managed options — workers, topology, admission cap — win.
func WithShardRuntimeOptions(opts ...RuntimeOption) PoolOption {
	return shard.WithRuntimeOptions(opts...)
}

// PoolSubmit places fn on the least-loaded shard (fewest in-flight jobs,
// tiebreaking on queue backlog) and submits it as a job without blocking.
// Saturation at the placed shard triggers the overflow exchange — the whole
// job is forwarded to the least-loaded other shard — and only when that one
// refuses too does it shed with ErrSaturated. A closed pool returns
// ErrClosed.
func PoolSubmit[T any](p *Pool, fn func(*W) T) (PoolJob[T], error) { return shard.Submit(p, fn) }

// PoolSubmitKeyed is PoolSubmit with consistent-hash placement on key:
// the same key routes to the same shard (sticky tenants), and a shard-count
// change remaps only ~1/S of the keyspace.
func PoolSubmitKeyed[T any](p *Pool, key uint64, fn func(*W) T) (PoolJob[T], error) {
	return shard.SubmitKeyed(p, key, fn)
}

// PoolSubmitWait is PoolSubmit with queueing backpressure: it forwards
// first, then blocks at the home shard until a slot frees.
func PoolSubmitWait[T any](p *Pool, fn func(*W) T) (PoolJob[T], error) {
	return shard.SubmitWait(p, fn)
}

// PoolSubmitAll batch-submits on one home shard (the single-runtime
// batching contract), overflowing the remainder batch-wise to the next
// least-loaded shard on partial admission before shedding the rest.
func PoolSubmitAll[T any](p *Pool, fns []func(*W) T, dst []PoolJob[T]) ([]PoolJob[T], error) {
	return shard.SubmitAll(p, fns, dst)
}
