package runtime

import (
	"context"
	"runtime"
	"sync"
	"time"

	"futurelocality/internal/deque"
	"futurelocality/internal/policy"
	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// Discipline is the fork-discipline vocabulary shared with the simulator
// (internal/policy): which side of a spawn the worker runs first.
type Discipline = policy.Discipline

const (
	// FutureFirst dives into the spawned future immediately (work-first) —
	// the Theorem 8 policy. See SpawnWith for the runtime mechanics.
	FutureFirst = policy.FutureFirst
	// ParentFirst makes the spawned future stealable and continues with the
	// parent (help-first) — the Theorem 10 policy.
	ParentFirst = policy.ParentFirst
)

// StealPolicy is the steal-discipline vocabulary shared with the simulator
// (internal/policy): whom a thief robs and how much it takes per visit. The
// runtime has one steal rule (W.stealOnce) and uses the vocabulary only to
// name it (Runtime.StealPolicy), by the two values below.
type StealPolicy = policy.StealPolicy

const (
	// RandomSingle steals one task from the top of a uniformly random victim
	// — the paper's parsimonious baseline, the only steal policy the Theorem
	// 8/12/16/18 envelopes cover, and what the runtime's rule is where all
	// workers share one locality domain.
	RandomSingle = policy.RandomSingle
	// Hierarchical exhausts victims inside the thief's cache-locality
	// domain (LLC-sharing group, see WithTopology) before probing across a
	// domain boundary — what the rule is where the workers span several.
	Hierarchical = policy.Hierarchical
)

// Option configures a Runtime at construction (see New).
type Option func(*options)

type options struct {
	workers     int
	seed        int64
	discipline  Discipline
	topo        *topology.Topology
	maxInFlight int
	flight      bool
	flightSize  int
	ctx         context.Context
}

// WithWorkers sets the worker count; n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithSeed seeds victim selection (worker i uses seed+i); 0 means 1.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithDiscipline sets the runtime-wide default fork discipline used by
// Spawn (and every facade call that does not pick one explicitly). The
// default is ParentFirst — the historical Spawn behavior, which keeps a
// lone spawn asynchronous; per-call SpawnWith overrides it. Combinators
// (Join2, JoinN, Map, ForEach, Reduce) realize the future-first discipline
// structurally regardless of this setting, because there the continuation
// is an explicit closure the runtime can expose for theft.
func WithDiscipline(d Discipline) Option {
	return func(o *options) {
		if !d.Valid() {
			panic("runtime: WithDiscipline(" + d.String() + ")")
		}
		o.discipline = d
	}
}

// WithTopology injects the cache topology workers are grouped by (see
// internal/topology): workers stripe across the topology's LLC domains,
// every steal is attributed intra- vs cross-domain, the parked-worker
// accounting is striped per domain, and a thief exhausts the victims of its
// own domain before it crosses a boundary (W.stealOnce) — so the topology is
// also what decides the steal rule's name (Runtime.StealPolicy). The default
// (nil) is the host topology discovered from sysfs, falling back to a
// single flat domain when discovery fails — pass a Synthetic topology
// (e.g. "2x2") for deterministic tests and sim-replay parity on machines
// whose real hierarchy is flat, and topology.Flat(n) for the theorems'
// uniformly random thief on a machine whose hierarchy is not.
func WithTopology(t *topology.Topology) Option {
	return func(o *options) { o.topo = t }
}

// WithMaxInFlight caps the number of submitted jobs concurrently in flight
// (admission control for the job-server layer; n <= 0 means unlimited, the
// default). At the cap, Submit fails fast with ErrSaturated — the
// load-shedding discipline — while SubmitWait queues until an in-flight job
// completes. Run roots are not jobs and are never admission-limited.
func WithMaxInFlight(n int) Option {
	return func(o *options) { o.maxInFlight = n }
}

// WithFlightRecorder equips the runtime with an always-recording bounded
// event ring of at least size events per worker (size <= 0 selects the
// 4096-event default). Unlike StartProfile — a windowed session somebody
// must remember to open — the flight recorder runs continuously from
// construction in constant memory, and DumpFlight reconstructs whatever
// recent window the rings hold into the standard DAG/deviation analysis on
// demand: post-hoc diagnosis of a latency spike that already happened.
// Cost: seven owner-local atomic stores per scheduling event — measurable
// on spawn-dense microbenchmarks (the fib kernel roughly doubles; see
// BenchmarkFibFlightOff/On), negligible for request-sized jobs; runtimes
// built without it pay one nil-check branch (TestNoFlightRecordOverhead
// proves the off path free).
func WithFlightRecorder(size int) Option {
	return func(o *options) { o.flight = true; o.flightSize = size }
}

// WithContext ties the runtime's lifetime to ctx: when ctx is cancelled
// the runtime shuts down as if Shutdown were called — workers finish their
// current task, cooperatively drain, and every task still queued fails its
// future fast with ErrClosed instead of hanging.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// New starts a runtime. With no options it uses GOMAXPROCS workers, seed 1,
// the ParentFirst default spawn discipline, and the host's cache topology:
//
//	rt := runtime.New(runtime.WithWorkers(8), runtime.WithDiscipline(runtime.FutureFirst))
//	defer rt.Shutdown()
func New(opts ...Option) *Runtime {
	o := options{discipline: ParentFirst}
	for _, opt := range opts {
		opt(&o)
	}
	n := o.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	seed := o.seed
	if seed == 0 {
		seed = 1
	}
	topo := o.topo
	if topo == nil {
		topo = topology.Detect()
	}
	assign := topo.Assign(n)
	rt := &Runtime{
		discipline: o.discipline,
		topo:       topo,
		assign:     assign,
		stop:       make(chan struct{}),
		term:       make(chan struct{}),
	}
	rt.tele = telemetry.NewSet(n)
	rt.teleExt = rt.tele.External()
	if o.flight {
		rt.flight = profile.NewFlight(n, o.flightSize)
	}
	rt.domainConds = make([]domainCond, assign.NumDomains())
	for i := range rt.domainConds {
		rt.domainConds[i].cond = sync.NewCond(&rt.mu)
	}
	rt.slotCond = sync.NewCond(&rt.mu)
	rt.maxInFlight = max(o.maxInFlight, 0)
	rt.free = make([]poolableRoot, 0, rootFreelistCap)
	for i := 0; i < n; i++ {
		w := &W{
			rt:      rt,
			id:      i,
			dq:      deque.NewPtr[task](dequeInitCap),
			tele:    rt.tele.Row(i),
			domain:  assign.Domain[i],
			rng:     seedXorshift(seed, i),
			jobFree: make([]poolableRoot, 0, workerFreeCap),
		}
		rt.workers = append(rt.workers, w)
	}
	// Precompute each worker's two victim tiers (same-domain peers first,
	// remote workers after) so the steal path never touches the topology
	// structures.
	for _, w := range rt.workers {
		for _, v := range rt.workers {
			if v == w {
				continue
			}
			if v.domain == w.domain {
				w.peers = append(w.peers, v)
			} else {
				w.remote = append(w.remote, v)
			}
		}
	}
	rt.born = time.Now()
	rt.wg.Add(n)
	for _, w := range rt.workers {
		go w.loop()
	}
	if o.ctx != nil && o.ctx.Done() != nil {
		go func(ctx context.Context) {
			select {
			case <-ctx.Done():
				rt.Shutdown()
			case <-rt.stop:
			}
		}(o.ctx)
	}
	return rt
}

// dequeInitCap is a worker deque's initial ring capacity. A touched task
// leaves the deque before it runs (see W.runInline), so in fork-join code
// the deque is as deep as the recursion, not as long as the run: 32 slots —
// four cache lines — hold it without growing. Deeper nests and programs
// that pass futures away grow the ring as ever.
const dequeInitCap = 32

// seedXorshift derives worker i's nonzero xorshift64 state from the seed
// via a splitmix64 scramble, so nearby seeds (seed+0, seed+1, ...) still
// yield decorrelated victim-selection streams.
func seedXorshift(seed int64, i int) uint64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // xorshift's absorbing state
	}
	return z
}
