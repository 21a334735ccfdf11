package runtime

import (
	"cmp"
	"runtime"
	"strconv"
	"time"

	"futurelocality/internal/dag"
	"futurelocality/internal/deque"
	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
)

// Discipline is the fork-discipline vocabulary shared with the simulator
// (dag.Discipline): which side of a spawn the worker runs first.
type Discipline = dag.Discipline

const (
	// FutureFirst dives into the spawned future immediately (work-first) —
	// the Theorem 8 policy. See SpawnWith for the runtime mechanics.
	FutureFirst = dag.FutureFirst
	// ParentFirst makes the spawned future stealable and continues with the
	// parent (help-first) — the Theorem 10 policy.
	ParentFirst = dag.ParentFirst
)

// Option configures a Runtime at construction (see New).
type Option func(*options)

type options struct {
	workers     int
	seed        int64
	discipline  Discipline
	maxInFlight int
	flight      int // flight-recorder window per worker (0 = none)
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
// (Join2, Map, ForEach) realize the future-first discipline
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

// WithMaxInFlight caps the number of submitted jobs concurrently in flight
// (admission control for the job-server layer; n <= 0 means unlimited, the
// default). At the cap, Submit fails fast with ErrSaturated — the
// load-shedding discipline — and SubmitAll admits the prefix that fits. Run
// roots are not jobs and are never admission-limited.
func WithMaxInFlight(n int) Option {
	return func(o *options) { o.maxInFlight = n }
}

// MaxFlightWindow is the largest window WithFlightRecorder accepts: 2²⁴
// events per worker, which hold 960 MiB per worker.
const MaxFlightWindow = 1 << 24

// WithFlightRecorder equips the runtime with an always-recording bounded
// event log that keeps the last size events per worker, rounded up to a
// power of two (size <= 0 selects the 4096-event default; New panics on a
// size above MaxFlightWindow). Unlike StartProfile — a windowed session
// somebody must remember to open — the flight recorder runs continuously
// from construction in constant memory, 60 bytes per event of the window
// (240 KiB per worker at the default), and DumpFlight reconstructs whatever
// recent window the logs hold into the standard DAG/deviation analysis on
// demand: post-hoc diagnosis of a latency spike that already happened. It is
// the profiling session's own recorder (profile.Recorder) with a bound: per
// scheduling event one event store and one owner-local atomic length store,
// and a mutex once per size/4 events — measurable on spawn-dense
// microbenchmarks (see BenchmarkFibFlightOff/On), negligible for
// request-sized jobs; runtimes built without it pay one nil-check branch
// (TestNoFlightRecordOverhead proves the off path free).
func WithFlightRecorder(size int) Option {
	return func(o *options) {
		if size > MaxFlightWindow {
			panic("runtime: WithFlightRecorder(" + strconv.Itoa(size) + ") above MaxFlightWindow")
		}
		o.flight = cmp.Or(max(size, 0), 4096)
	}
}

// New starts a runtime. With no options it uses GOMAXPROCS workers, seed 1
// and the ParentFirst default spawn discipline. A runtime is one steal
// domain whatever the machine: its thief robs any other worker uniformly at
// random, the thief the theorems assume. To follow a machine's LLC domains,
// run a shard.Pool, one runtime per domain:
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
	seed := cmp.Or(o.seed, 1)
	rt := &Runtime{
		discipline: o.discipline,
		term:       make(chan struct{}),
	}
	rt.solo.rt = rt
	rt.tele = telemetry.NewSet(n)
	rt.teleExt = rt.tele.External()
	if o.flight > 0 {
		rt.flight = profile.NewRecorder(n, o.flight)
	}
	rt.idle = make([]*slot, 0, n)
	rt.maxInFlight = max(o.maxInFlight, 0)
	rt.free = make([]poolableRoot, 0, rootFreelistCap)
	for i := 0; i < n; i++ {
		w := &W{
			rt:      rt,
			id:      i,
			dq:      deque.NewPtr[task](dequeInitCap),
			tele:    rt.tele.Row(i),
			slot:    newSlot(),
			rng:     seedXorshift(seed, i),
			curJob:  &rt.solo,
			jobFree: make([]poolableRoot, 0, workerFreeCap),
		}
		rt.workers = append(rt.workers, w)
	}
	for _, w := range rt.workers {
		for _, v := range rt.workers {
			if v != w {
				w.victims = append(w.victims, v)
			}
		}
	}
	rt.born = time.Now()
	rt.wg.Add(n)
	for _, w := range rt.workers {
		go w.loop()
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
