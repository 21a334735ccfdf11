// Package futurelocality is a faithful, executable reproduction of
// Herlihy & Liu, "Well-Structured Futures and Cache Locality" (PPoPP 2014,
// arXiv:1309.5301), built around the paper's central claim: a structured,
// single-touch future-parallel program executed by future-first
// parsimonious work stealing on P processors with C-line private caches
// incurs at most O(C + P·T∞²·C) cache misses beyond its sequential
// execution — deviations from the sequential order are bounded by
// O(P·T∞²), and each deviation costs at most O(C) additional misses. The
// module both proves that claim by simulation and measures it on real
// executions: the computation-DAG model of future-parallel programs, the
// structure classes the paper defines (structured, single-touch,
// local-touch, super-final-node variants), a deterministic parsimonious
// work-stealing scheduler simulator with per-processor caches and
// scriptable adversarial schedules, the paper's worst-case DAG
// constructions (Figures 2–8), deviation and cache-cost analysis against
// the Theorem 8/9/10/12/16/18 bounds (the miss envelope C·(1+P·T∞²)
// granted exactly where the theorems' hypotheses hold), machine checks of
// Lemmas 4/11/14, and a real parallel work-stealing futures runtime for
// Go that enforces the single-touch discipline — with a profiler that
// replays reconstructed real-run DAGs through the cache model and reports
// simulated extra misses, not just deviations, against the bound.
//
// The three layers:
//
//   - Model & analysis (Builder, Classify, Simulate, Analyze): build a
//     computation DAG program-style, classify it against the paper's
//     definitions, execute it under the Section 3 scheduler model, count
//     deviations and additional cache misses, and compare against the
//     theoretical envelopes.
//
//   - Paper artifacts (Fig3..Fig8, ForkJoinTree, Fib, Pipeline,
//     RandomStructured, adversarial scripts): the exact constructions
//     used in the proofs, parameterized, with the proofs' schedules
//     replayable via the adversary scripts.
//
//   - Runtime (NewRuntime, Spawn, SpawnWith, Touch, Join2): a production
//     work-stealing futures scheduler on goroutines with pointer-
//     specialized Chase–Lev deques, single-touch enforcement, touch-time
//     helping, and both fork disciplines through one parameterized spawn
//     primitive. The hot path is cache-conscious and allocation-lean: a
//     future IS its task (one allocation carries identity, one atomic
//     status word — scheduling state, completion and the single-touch
//     latch — and the result; the blocking gate is materialized only
//     when a toucher actually parks), deque slots hold
//     task pointers directly with top/bottom on separate cache lines and
//     a touched task leaves the deque before it runs, so deques hold live
//     work only. A worker's spawn and inline touch write no cache line
//     other workers share, and a push wakes at most one parked worker — it
//     takes no lock at all unless the atomic parked count says somebody is
//     actually asleep (a parking worker re-reads every queue's length
//     after raising that count, which preserves lost-wakeup safety). Victim
//     selection is an inline xorshift, not a math/rand object. The
//     scheduler's decision surface has two axes, both vocabulary shared
//     with the simulator. The Discipline (FutureFirst / ParentFirst) is
//     configurable on both sides: WithDiscipline sets the runtime-wide
//     default, SpawnWith overrides it per call, SimConfig.Policy names the
//     same constants. The StealPolicy (RandomSingle / StealHalf /
//     LastVictimAffinity / Hierarchical) configures the simulator only
//     (SimConfig.Steal, and the profiler's replay matrix): the runtime has
//     one steal rule and no option to choose another — one task from the
//     top of a victim drawn uniformly among the workers of the thief's own
//     LLC locality domain, and across a cache boundary only when all of
//     those are dry — which Runtime.StealPolicy names RandomSingle, the
//     parsimonious thief the paper's bounds assume, where the workers
//     share one domain (always, under WithTopology(FlatTopology(n))), and
//     Hierarchical where they span several. A steal is counted once, where
//     the stolen task runs: Stats.Steals, the per-job counts and a
//     whole-run trace's steal events are one number.
//     The domains come from the cache-topology subsystem (DetectTopology
//     reads the host's sysfs cache hierarchy, SyntheticTopology builds an
//     injectable DxC layout, WithTopology installs either), which also
//     stripes the runtime's parked-worker accounting per domain and
//     splits every steal into intra- vs cross-domain telemetry (spreading
//     *jobs* over domains is the sharded pool's work, below).
//     Errors and cancellation are first-class:
//     RunErr and
//     Future.TouchErr return task panics as errors (*PanicError), and a
//     runtime closed by Shutdown or a cancelled WithContext context fails
//     spawns fast with ErrClosed instead of hanging.
//
//   - Job server (Submit, SubmitAll, SubmitWait, Job, WithMaxInFlight):
//     the runtime as a multi-tenant service. Submit is non-blocking and
//     returns a typed Job handle (Wait / WaitErr / TryWait / Done) — a
//     value with a generation check, because job roots recycle through
//     a freelist and a steady-state Submit+Wait round trip
//     allocates nothing; every task a job's computation spawns inherits
//     the job's identity, so each job gets its own Stats (tasks, steals,
//     touch modes), queue-wait and wall-latency capture, and profiler
//     attribution (job IDs are never reused). SubmitAll admits a whole
//     batch in one visit — one admission CAS, one ID block, one
//     wakeup decision; all-or-prefix at the cap. WithMaxInFlight adds
//     admission control: at the cap Submit sheds load with ErrSaturated
//     while SubmitWait queues; shutdown fails queued jobs fast with
//     ErrClosed — waiters never hang. Because the paper's deviation bound
//     is per computation, AnalyzeProfile splits a multi-tenant trace by
//     job (Event.Job) and reports one deviation-vs-envelope verdict per
//     job — each concurrent DAG is checked against its own P·T∞², not a
//     pooled blur (see Report.Jobs).
//
//   - Sharded pool (NewPool, PoolSubmit, PoolSubmitKeyed, WithShards):
//     the serve path scaled out — S independent runtimes, each one
//     admission plane, by default one per LLC locality domain with each
//     shard's workers pinned inside its domain, behind a router with the
//     same submit surface. Placement is least-loaded (one in-flight word
//     per shard), or consistent-hash on an optional job key (the ring
//     depends only on shard identity, so resizing moves ~1/S of keys and
//     none between surviving shards); when the placed shard's admission
//     is saturated the router forwards the whole job to the least-loaded
//     shard before shedding — whole jobs move between shards, interior
//     tasks never do, so every job's P·T∞² envelope verdict stays
//     attributed to the one runtime that executed it. Pool.WriteMetrics
//     merges every shard's page under a shard label and counts router
//     outcomes (offered/forwarded/shed) separately; Shutdown drains
//     shard by shard, rolling.
//
//   - Profiler (Runtime.StartProfile, ReconstructProfile, AnalyzeProfile):
//     a near-zero-overhead event recorder wired into the runtime's
//     scheduling paths; its trace reconstructs the computation DAG a real
//     run performed — including the discipline of every spawn and the
//     steal policy plus batch size of every steal — classifies it, and
//     compares measured deviations (steals, helped tasks, blocked touches)
//     against the theorem envelopes, a simulator replay of the same DAG,
//     and a full (fork × steal) replay matrix attributing deviation cost
//     to policy choice, connecting the model layer to live executions
//     (cmd/futureprof is the CLI). With a CacheModel (ParseCacheModel
//     reads "C,policy" specs; ProfileOptions.CacheModel /
//     AnalyzeOptions.CacheModel install one), the analysis also prices
//     every replayed schedule in cache misses: a block footprint is
//     derived from the DAG (per-thread frame + working-set window, the
//     touched thread's frame read at each touch), replayed through P
//     private caches (optionally a shared LLC tier per topology domain),
//     and reported as extra misses over the sequential baseline — per
//     report, per matrix cell, and per job — with Belady's OPT as the
//     ideal-cache yardstick and the C·(1+P·T∞²) envelope granted only at
//     the future-first × random-single cell (see Report.CacheCost).
//
//   - Observability (Runtime.TelemetrySnapshot, Runtime.WriteMetrics,
//     WithFlightRecorder): always-on per-worker counters (one atomic add
//     per scheduling event; the once-per-task counts are batched by the
//     worker and published before anyone can wait for the result) and
//     log-bucketed latency histograms, exposed
//     as a Prometheus text page (WriteMetrics) or an expvar map
//     (MetricsMap). WithFlightRecorder adds a continuously-recording
//     bounded event ring per worker: DumpFlight reconstructs the recent
//     window through the profiler's analysis stack on demand — no
//     profiling session needed — and FlightEnvelope reads the rolling
//     deviations-vs-P·T∞² gauge off it.
//
// A minimal model session:
//
//	b := futurelocality.NewBuilder()
//	m := b.Main()
//	m.Step()
//	f := m.Fork()
//	f.Steps(100)
//	m.Steps(50)
//	m.Touch(f)
//	g := b.MustBuild()
//
//	rep, _ := futurelocality.Analyze(g, futurelocality.AnalyzeOptions{
//	    P: 8, CacheLines: 64, Policy: futurelocality.FutureFirst, Trials: 16,
//	})
//	fmt.Print(rep) // deviations vs the O(P·T∞²) envelope, misses, steals
//
// And a minimal runtime session:
//
//	rt := futurelocality.NewRuntime(
//	    futurelocality.WithWorkers(8),
//	    futurelocality.WithDiscipline(futurelocality.FutureFirst),
//	)
//	defer rt.Shutdown()
//	sum, err := futurelocality.RunErr(rt, func(w *futurelocality.W) int {
//	    f := futurelocality.SpawnWith(rt, w, futurelocality.ParentFirst,
//	        func(w *futurelocality.W) int { return left(w) })
//	    r := right(w)
//	    return f.Touch(w) + r
//	})
//
// Which discipline does what: Spawn follows the runtime default
// (ParentFirst unless WithDiscipline says otherwise) — ParentFirst pushes
// the child for theft and continues, the policy Theorem 10 warns about;
// FutureFirst dives into the child immediately, Theorem 8's
// recommendation. Join2/JoinN/Map/ForEach/Reduce realize future-first
// structurally (they dive into the first branch and push the explicit
// continuation closures), so they are Theorem 8-shaped regardless of the
// default; Scope and Produce spawn help-first on purpose (a side-effect
// future or a pipeline producer exists to overlap with its consumer).
//
// See DESIGN.md for the system as it is, one section per package,
// EXPERIMENTS.md for the paper-vs-measured record of every theorem and
// figure (E1–E16; go run ./cmd/paperbench regenerates it), and bench/README.md for the repository's one benchmark
// (go run ./bench [-workload …] [-trace 1]), which is how any statement
// about the runtime's speed is measured.
package futurelocality
