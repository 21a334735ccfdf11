// Package shard scales the job-server layer horizontally: a Pool is S
// independent work-stealing Runtimes — by default one per cache-locality
// (LLC) domain of the machine topology — behind a front-end router that
// exposes the same Submit/SubmitAll surface as a single runtime.
//
// The sharding unit is the *job*, never the task. Herlihy & Liu's deviation
// bound is per-computation and quadratic in the processor count, so
// splitting P workers into S pools of P/S both multiplies the admission and
// queue bandwidth (S global queues, S parked-worker protocols, S admission
// planes — a runtime is exactly one) and shrinks every job's O(P·T∞²)
// envelope. Because a job's interior tasks only ever execute inside the
// runtime that admitted its root — spawns go through the executing worker's
// own runtime — each job's per-job envelope verdict and flight-recorder
// attribution stay well-defined no matter how the router places or forwards
// it.
//
// Placement is one rule plus a ring. An unkeyed submit goes to the shard
// with the fewest in-flight jobs (each shard's InFlight word, one load),
// tiebreaking on global-queue backlog (one more). SubmitKeyed routes by key
// on a 64-virtual-node consistent-hash ring whose points depend only on
// shard identity, so resizing from S to S+1 shards remaps only ~1/(S+1) of
// the keyspace — sticky tenants keep their shard (and its warm cache)
// across resizes.
//
// Overflow exchange: when the placed shard's admission is saturated, the
// router forwards the whole job to the least-loaded other shard before
// shedding. Forwards and sheds are counted distinctly (Forwarded/Shed,
// futurelocality_pool_jobs_total{outcome="forwarded"|"shed"}): a forward is
// capacity found elsewhere, a shed is capacity missing everywhere.
//
// Shutdown drains shard-by-shard (rolling drain): each shard is removed
// from placement, its in-flight jobs complete, then its workers stop —
// concurrent submits reroute to the still-active shards, so a pool drains
// gracefully under live traffic.
package shard

import (
	"errors"
	stdruntime "runtime"
	"sort"
	"sync/atomic"
	"time"

	"futurelocality/internal/runtime"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// Option configures a Pool at construction (see NewPool).
type Option func(*config)

type config struct {
	shards      int
	workers     int
	maxInFlight int
	topo        *topology.Topology
	rtOpts      []runtime.Option
}

// WithShards sets the shard count; n <= 0 (the default) means one shard
// per LLC domain of the pool topology.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithWorkers sets the total worker count across all shards (split as
// evenly as the shard count divides it, earlier shards taking the
// remainder); n <= 0 means GOMAXPROCS. Every shard gets at least one
// worker.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithMaxInFlight caps the total jobs in flight across the pool, split
// evenly across shards (each shard gets at least 1). n <= 0 means
// unlimited — unless a runtime option passed via WithRuntimeOptions sets a
// per-shard cap itself.
func WithMaxInFlight(n int) Option {
	return func(c *config) { c.maxInFlight = n }
}

// WithTopology injects the machine topology the default shard count is read
// from: one shard per LLC domain. The default (nil) is the host topology
// from sysfs with a flat fallback.
func WithTopology(t *topology.Topology) Option {
	return func(c *config) { c.topo = t }
}

// WithRuntimeOptions appends construction options applied to every member
// runtime (discipline, flight recorder, seed). The pool-managed options —
// workers, admission cap — are applied after these and win.
func WithRuntimeOptions(opts ...runtime.Option) Option {
	return func(c *config) { c.rtOpts = append(c.rtOpts, opts...) }
}

// Pool is a sharded job server: S runtimes behind one router. Construct
// with NewPool, submit through the package-level Submit/SubmitKeyed/
// SubmitAll, stop with Shutdown.
type Pool struct {
	rts  []*runtime.Runtime
	topo *topology.Topology
	ring []ringPoint
	// draining[i] is set once the rolling drain reaches shard i: placement
	// skips the shard from then on, while its in-flight jobs finish and after.
	draining []atomic.Bool

	// Router outcomes. offered counts every job presented to the pool;
	// forwarded the subset admitted by a shard other than its placement
	// choice after that shard refused; shed the jobs no shard would take.
	// Invariant (pool-only traffic): offered == Σ shard-admitted + shed.
	offered   atomic.Int64
	forwarded atomic.Int64
	shed      atomic.Int64

	closed atomic.Bool
	term   chan struct{}
}

// NewPool builds and starts a sharded pool. With no options: one shard per
// LLC domain of the host topology, GOMAXPROCS workers split across them,
// no admission cap, least-loaded placement, overflow forwarding on.
func NewPool(opts ...Option) *Pool {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	topo := cfg.topo
	if topo == nil {
		topo = topology.Detect()
	}
	n := cfg.shards
	if n <= 0 {
		n = topo.NumDomains()
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	if workers < n {
		workers = n
	}
	p := &Pool{
		topo:     topo,
		ring:     buildRing(n),
		draining: make([]atomic.Bool, n),
		term:     make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		// Split totals as evenly as n divides them, earlier shards taking
		// the remainder; every shard keeps at least one worker (and one
		// admission slot when capped).
		w := workers / n
		if i < workers%n {
			w++
		}
		rtOpts := append(append([]runtime.Option{}, cfg.rtOpts...),
			runtime.WithWorkers(w),
		)
		if cfg.maxInFlight > 0 {
			c := cfg.maxInFlight / n
			if i < cfg.maxInFlight%n {
				c++
			}
			if c < 1 {
				c = 1
			}
			rtOpts = append(rtOpts, runtime.WithMaxInFlight(c))
		}
		p.rts = append(p.rts, runtime.New(rtOpts...))
	}
	return p
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.rts) }

// Runtime returns shard i's member runtime — the escape hatch for per-shard
// introspection (stats, flight dumps, profiling).
func (p *Pool) Runtime(i int) *runtime.Runtime { return p.rts[i] }

// Topology returns the machine topology the shards were carved from.
func (p *Pool) Topology() *topology.Topology { return p.topo }

// Workers returns the total worker count across shards.
func (p *Pool) Workers() int {
	n := 0
	for _, rt := range p.rts {
		n += rt.Workers()
	}
	return n
}

// InFlight returns the jobs admitted and not yet completed, summed across
// shards — one atomic load per shard.
func (p *Pool) InFlight() int {
	n := 0
	for _, rt := range p.rts {
		n += rt.InFlight()
	}
	return n
}

// MaxInFlight returns the pool-wide admission cap: the sum of the per-shard
// caps (0 when uncapped).
func (p *Pool) MaxInFlight() int {
	n := 0
	for _, rt := range p.rts {
		n += rt.MaxInFlight()
	}
	return n
}

// Offered returns the jobs presented to the router since construction.
func (p *Pool) Offered() int64 { return p.offered.Load() }

// Forwarded returns the jobs the overflow exchange moved to a non-home
// shard after the placed shard refused admission. A forwarded job was
// admitted — it is counted by the executing shard's submitted counter, not
// by Shed.
func (p *Pool) Forwarded() int64 { return p.forwarded.Load() }

// Shed returns the jobs no shard would admit — the pool's actual drop
// count. Per-shard shed counters tick on every local refusal including
// ones the exchange then forwarded; this counter only moves when capacity
// was missing everywhere.
func (p *Pool) Shed() int64 { return p.shed.Load() }

// Submit places fn on the least-loaded shard and submits it as a job, never
// blocking. A saturated home shard triggers the overflow exchange: the whole
// job is forwarded to the least-loaded other shard, and only when that one
// refuses too does Submit shed with ErrSaturated. A fully closed pool
// returns ErrClosed. The handle is the admitting member runtime's own Job;
// which shard that was shows in the shards' submitted-jobs counters.
func Submit[T any](p *Pool, fn func(*runtime.W) T) (runtime.Job[T], error) {
	return route(p, p.leastLoaded(-1), fn)
}

// SubmitKeyed is Submit with consistent-hash placement on key: the same key
// routes to the same shard for any fixed shard count, and a shard-count
// change remaps only ~1/S of the keyspace — tenant affinity that survives
// resizes. The overflow exchange still forwards when the key's shard is
// saturated (stickiness yields to capacity, and the forward is counted).
func SubmitKeyed[T any](p *Pool, key uint64, fn func(*runtime.W) T) (runtime.Job[T], error) {
	return route(p, p.ringLookup(key), fn)
}

// elsewhere is the router's one decision, asked after shard s refused a job
// (or a batch's remainder) with err: the least-loaded other active shard,
// and whether going there is an overflow forward — s was saturated, so
// capacity found elsewhere is counted — or a reroute around a shard the
// rolling drain closed under the placement, where nothing refused for
// capacity and nothing is counted. -1 means no other shard is active.
func (p *Pool) elsewhere(s int, err error) (next int, forward bool) {
	return p.leastLoaded(s), errors.Is(err, runtime.ErrSaturated)
}

// route is the single-job submit core: try the home shard, reroute around a
// drained one (at most once per shard), forward once on saturation, and shed
// when the forward is refused too.
func route[T any](p *Pool, home int, fn func(*runtime.W) T) (runtime.Job[T], error) {
	p.offered.Add(1)
	for tries := 0; home >= 0 && tries < len(p.rts); tries++ {
		j, err := runtime.Submit(p.rts[home], fn)
		if err == nil {
			return j, nil
		}
		alt, forward := p.elsewhere(home, err)
		if !forward {
			home = alt
			continue
		}
		if alt >= 0 {
			if j, err := runtime.Submit(p.rts[alt], fn); err == nil {
				p.forwarded.Add(1)
				return j, nil
			}
		}
		p.shed.Add(1)
		return runtime.Job[T]{}, runtime.ErrSaturated
	}
	p.shed.Add(1)
	return runtime.Job[T]{}, runtime.ErrClosed
}

// SubmitAll batch-submits every fn, appending the admitted handles to dst
// (pass a slice with capacity to keep the call allocation-free). The whole
// batch is placed
// on the least-loaded shard — one admission CAS, one freelist visit, one
// wakeup decision, exactly the single-runtime batching contract — and on
// partial admission the *remainder* overflows as a batch to the least-loaded
// next shard, hop by hop, before the rest is shed with ErrSaturated.
func SubmitAll[T any](p *Pool, fns []func(*runtime.W) T, dst []runtime.Job[T]) ([]runtime.Job[T], error) {
	if len(fns) == 0 {
		return dst, nil
	}
	p.offered.Add(int64(len(fns)))
	s := p.leastLoaded(-1)
	err := runtime.ErrClosed // what a pool with no active shard answers
	forwarding := false
	for hop := 0; s >= 0 && hop <= len(p.rts); hop++ {
		before := len(dst)
		dst, err = runtime.SubmitAll(p.rts[s], fns, dst)
		admitted := len(dst) - before
		if forwarding {
			p.forwarded.Add(int64(admitted))
		}
		if fns = fns[admitted:]; len(fns) == 0 {
			return dst, nil
		}
		// Partial admission (ErrSaturated) or a drained shard (ErrClosed,
		// nothing admitted): the remainder's only hope is another shard.
		var forward bool
		s, forward = p.elsewhere(s, err)
		forwarding = forwarding || forward
	}
	p.shed.Add(int64(len(fns)))
	return dst, err
}

// leastLoaded returns the active shard (excluding except) with the fewest
// in-flight jobs, tiebreaking on global-queue backlog. Both reads are
// O(1) atomic snapshots — stale by the time the caller acts, which is the
// usual and acceptable contract for load-based placement.
func (p *Pool) leastLoaded(except int) int {
	best := -1
	var bestFlight, bestQueue int
	for i := range p.rts {
		if i == except || p.draining[i].Load() {
			continue
		}
		f := p.rts[i].InFlight()
		q := p.rts[i].QueueBacklog()
		if best < 0 || f < bestFlight || (f == bestFlight && q < bestQueue) {
			best, bestFlight, bestQueue = i, f, q
		}
	}
	return best
}

// Shutdown drains the pool shard by shard — the rolling drain. Each shard
// in turn is removed from placement (new submits route around it), its
// in-flight jobs run to completion, and only then do its workers stop.
// Submits racing the final shard's close observe ErrClosed deterministically
// (directly, or through a handle whose Wait reports it — the single-runtime
// contract). Idempotent; concurrent callers return after the pool has fully
// quiesced.
func (p *Pool) Shutdown() {
	if p.closed.Swap(true) {
		<-p.term
		return
	}
	for i := range p.rts {
		p.draining[i].Store(true)
		for p.rts[i].InFlight() > 0 {
			time.Sleep(50 * time.Microsecond)
		}
		p.rts[i].Shutdown()
	}
	close(p.term)
}

// TelemetrySnapshots snapshots every shard's always-on counter matrix,
// indexed by shard. Sum a counter across shards for the pool total, or
// subtract two calls' worth for a rate window per shard.
func (p *Pool) TelemetrySnapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(p.rts))
	for i, rt := range p.rts {
		out[i] = rt.TelemetrySnapshot()
	}
	return out
}

// LatencyHist merges every shard's job-latency histogram into one pool-wide
// snapshot (the power-of-two buckets merge exactly).
func (p *Pool) LatencyHist() stats.HistSnapshot {
	var h stats.HistSnapshot
	for _, rt := range p.rts {
		h = h.Merge(rt.LatencyHist())
	}
	return h
}

// QueueWaitHist merges every shard's queue-wait histogram.
func (p *Pool) QueueWaitHist() stats.HistSnapshot {
	var h stats.HistSnapshot
	for _, rt := range p.rts {
		h = h.Merge(rt.QueueWaitHist())
	}
	return h
}

// Consistent-hash ring: ringReplicas virtual nodes per shard, point
// positions derived only from (shard, replica) — adding or removing a
// shard leaves every other shard's points in place, which is the whole
// stability property.
const ringReplicas = 64

type ringPoint struct {
	h     uint64
	shard int32
}

func buildRing(n int) []ringPoint {
	pts := make([]ringPoint, 0, n*ringReplicas)
	for s := 0; s < n; s++ {
		for r := 0; r < ringReplicas; r++ {
			pts = append(pts, ringPoint{h: splitmix64(uint64(s)<<32 | uint64(r)), shard: int32(s)})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].shard < pts[j].shard
	})
	return pts
}

// ringLookup maps key to the first active shard clockwise from the key's
// ring position; -1 when no shard is active.
func (p *Pool) ringLookup(key uint64) int {
	h := splitmix64(key)
	n := len(p.ring)
	i := sort.Search(n, func(i int) bool { return p.ring[i].h >= h })
	for k := 0; k < n; k++ {
		pt := p.ring[(i+k)%n]
		if !p.draining[pt.shard].Load() {
			return int(pt.shard)
		}
	}
	return -1
}

// splitmix64 is the finalizer-quality mixer used for ring points and key
// hashing (same constants as the runtime's seed scrambler).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
