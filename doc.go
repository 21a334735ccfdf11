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
//   - Model & analysis (Builder, Classify, Analyze, CheckLemma4): build a
//     computation DAG program-style, classify it against the paper's
//     definitions, execute it under the Section 3 scheduler model, count
//     deviations and additional cache misses, and compare against the
//     theoretical envelopes.
//
//   - Paper artifacts (Pipeline here; the Figure 2–8 constructions, the
//     other workload families and the adversarial scripts behind
//     cmd/futuresim and cmd/paperbench): the exact constructions used in
//     the proofs, parameterized, with the proofs' schedules replayable.
//
//   - Runtime (NewRuntime, Spawn, SpawnWith, Touch, Join2): a production
//     work-stealing futures scheduler on goroutines with pointer-
//     specialized Chase–Lev deques, single-touch enforcement, touch-time
//     helping, and both fork disciplines through one parameterized spawn
//     primitive. The hot path is cache-conscious and allocation-lean: a
//     future IS its task (one allocation carries identity, one atomic
//     status word — scheduling state, completion and the single-touch
//     latch — and the result; a toucher that blocks sleeps on a one-token
//     slot it already owns or borrows), deque slots hold
//     task pointers directly with top/bottom on separate cache lines and
//     a touched task leaves the deque before it runs, so deques hold live
//     work only. A worker's spawn and inline touch write no cache line
//     other workers share, and a push wakes at most one parked worker — it
//     takes no lock at all unless the atomic parked count says somebody is
//     asleep and not yet signalled (a parking worker re-reads every queue's
//     length after raising that count, and raises it again before every
//     sleep, which preserves lost-wakeup safety). Victim
//     selection is an inline xorshift, not a math/rand object. The
//     Discipline (FutureFirst / ParentFirst) is one vocabulary with the
//     simulator: WithDiscipline sets the runtime-wide default, SpawnWith
//     overrides it per call, AnalyzeOptions.Policy names the same
//     constants. The steal rule is not a choice: one task from the top of
//     a victim drawn uniformly among all the other workers, the
//     parsimonious thief the paper's bounds assume. A runtime is one steal
//     domain on any machine, whose parked workers sleep on their own slots
//     on one idle stack; following the machine's LLC domains is the
//     sharded pool's work (below). A steal is counted once, where the
//     stolen task runs: Stats.Steals and a whole-run trace's steal events,
//     which Event.Job splits per job, are one number. RunErr returns a task's panic
//     as an error, and a runtime closed by Shutdown fails spawns fast
//     instead of hanging.
//
//   - Job server (Submit, SubmitAll, Job, WithMaxInFlight):
//     the runtime as a multi-tenant service. Submit is non-blocking and
//     returns a typed Job handle (Wait / WaitErr) — a
//     value with a generation check, because job roots recycle through
//     a freelist: a steady-state Submit allocates nothing, nor does a
//     Wait (a blocked Wait sleeps on a pooled slot); every task a job's computation spawns inherits
//     the job's identity, so each job gets its own wall-latency capture and
//     profiler attribution — its tasks, steals and touch modes are its
//     events in a trace (job IDs are never reused). SubmitAll admits a whole
//     batch in one visit — one admission CAS, one ID block, one
//     wakeup decision; all-or-prefix at the cap. WithMaxInFlight adds
//     admission control: at the cap Submit sheds load with ErrSaturated;
//     shutdown fails queued jobs fast — waiters never hang. Because the paper's deviation bound
//     is per computation, AnalyzeProfile splits a multi-tenant trace by
//     job (Event.Job) and reports one deviation-vs-envelope verdict per
//     job — each concurrent DAG is checked against its own P·T∞², not a
//     pooled blur (see Report.Jobs).
//
//   - Sharded pool (NewPool, PoolSubmit, PoolSubmitAll, WithShards):
//     the serve path scaled out — S independent runtimes, each one
//     admission plane and one steal domain, by default one per LLC locality
//     domain of the topology (the host's sysfs cache hierarchy by default;
//     SyntheticTopology builds an injectable DxC layout and
//     WithPoolTopology installs it) — the one layer that follows the
//     machine's caches — behind a router with the same submit surface,
//     returning the admitting runtime's own Job.
//     Placement is least-loaded (one in-flight word per shard), or
//     consistent-hash on an optional job key (the ring
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
//   - Profiler (Runtime.StartProfile, AnalyzeProfile):
//     a near-zero-overhead event recorder wired into the runtime's
//     scheduling paths; its trace reconstructs the computation DAG a real
//     run performed — including the discipline of every spawn — classifies
//     it, and compares measured deviations (steals, helped tasks, blocked
//     touches) against the theorem envelopes — granted only when every
//     fork the trace recorded was future-first — a simulator replay of the
//     same DAG under future-first × random-single, and a replay under each
//     fork discipline attributing deviation cost to policy choice,
//     connecting the model layer to live executions
//     (cmd/futureprof is the CLI). With a CacheModel (ParseCacheModel
//     reads "C,policy" specs; ProfileOptions.CacheModel /
//     AnalyzeOptions.CacheModel install one), the analysis also prices
//     every replayed schedule in cache misses: a block footprint is
//     derived from the DAG (per-thread frame + working-set window, the
//     touched thread's frame read at each touch), replayed through P
//     private caches (optionally one shared LLC tier),
//     and reported as extra misses over the sequential baseline — per
//     report, per matrix cell, and per job — with Belady's OPT as the
//     ideal-cache yardstick and the C·(1+P·T∞²) envelope granted only at
//     the future-first × random-single cell (see Report.CacheCost).
//
//   - Observability (Runtime.TelemetrySnapshot, Runtime.WriteMetrics,
//     WithFlightRecorder): always-on per-worker counters (one atomic add
//     per scheduling event; the per-task counts are batched by the
//     worker and published, to its row and its job at once, before anyone
//     can wait for the result) and
//     log-bucketed latency histograms, exposed
//     as a Prometheus text page (WriteMetrics) or an expvar map
//     (MetricsMap). WithFlightRecorder adds a continuously-recording
//     bounded event log per worker: DumpFlight reconstructs the recent
//     window through the profiler's analysis stack on demand — no
//     profiling session needed — and FlightEnvelope reads the rolling
//     deviations-vs-P·T∞² gauge off it, a ProfileReading like the one
//     each ProfileReport and each of its per-job verdicts embeds.
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
