package shard

import (
	"errors"
	"io"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"futurelocality/internal/runtime"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// shutdownDeadline bounds every Shutdown this package's tests make from the
// test's goroutine. Pool.Shutdown waits, with no deadline, for each shard's
// admitted jobs to finish; one leaked admission would otherwise hang the
// package until go test's -timeout, naming no test.
const shutdownDeadline = 10 * time.Second

// shutdown shuts s down and fails t, naming it, with every goroutine's stack
// when that takes longer than shutdownDeadline. Tests call or defer it in
// place of s.Shutdown.
func shutdown(t *testing.T, s interface{ Shutdown() }) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(shutdownDeadline):
		buf := make([]byte, 1<<20)
		buf = buf[:goruntime.Stack(buf, true)]
		t.Fatalf("Shutdown did not return in %v; every goroutine:\n%s", shutdownDeadline, buf)
	}
}

func synth(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// keyFor probes for a key whose ring position lands on shard want — the
// deterministic way to aim keyed traffic in overflow tests.
func keyFor(t *testing.T, p *Pool, want int) uint64 {
	t.Helper()
	for k := uint64(0); k < 4096; k++ {
		if p.ringLookup(k) == want {
			return k
		}
	}
	t.Fatalf("no key maps to shard %d", want)
	return 0
}

// submitted reads every shard's submitted-jobs counter, indexed by shard.
func submitted(p *Pool) []int64 {
	out := make([]int64, p.Shards())
	for i := range out {
		out[i] = p.Runtime(i).TelemetrySnapshot().Total(telemetry.CJobsSubmitted)
	}
	return out
}

// placed runs submit, which submits jobs to p, and returns how many each
// shard admitted: its submitted-jobs delta. A pool's handle is the member
// runtime's own Job, so this counter is where placement shows.
func placed(p *Pool, submit func()) []int64 {
	before := submitted(p)
	submit()
	d := submitted(p)
	for i := range d {
		d[i] -= before[i]
	}
	return d
}

// placedOne is placed for a submit of one job: the shard that admitted it.
func placedOne(t *testing.T, p *Pool, submit func()) int {
	t.Helper()
	d := placed(p, submit)
	shard, moved := -1, 0
	for i, n := range d {
		if n != 0 {
			shard, moved = i, moved+1
		}
	}
	if moved != 1 || d[shard] != 1 {
		t.Fatalf("submitted-jobs deltas by shard %v, want one job on one shard", d)
	}
	return shard
}

// TestAutoShardsFromTopology: the default shard count is one per LLC
// domain, the workers split evenly across the shards.
func TestAutoShardsFromTopology(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4))
	defer shutdown(t, p)
	if p.Shards() != 2 {
		t.Fatalf("shards = %d, want 2 (one per domain)", p.Shards())
	}
	if p.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", p.Workers())
	}
	for i := 0; i < 2; i++ {
		rt := p.Runtime(i)
		if rt.Workers() != 2 {
			t.Fatalf("shard %d workers = %d, want 2", i, rt.Workers())
		}
	}
}

// TestWorkerAndCapSplit: totals split evenly with earlier shards taking
// the remainder, and every shard keeps at least one worker and one slot.
func TestWorkerAndCapSplit(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "3x1")), WithWorkers(5), WithMaxInFlight(7))
	defer shutdown(t, p)
	if got := []int{p.Runtime(0).Workers(), p.Runtime(1).Workers(), p.Runtime(2).Workers()}; got[0] != 2 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("worker split = %v, want [2 2 1]", got)
	}
	if got := []int{p.Runtime(0).MaxInFlight(), p.Runtime(1).MaxInFlight(), p.Runtime(2).MaxInFlight()}; got[0] != 3 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("cap split = %v, want [3 2 2]", got)
	}
	if p.MaxInFlight() != 7 {
		t.Fatalf("pool cap = %d, want 7", p.MaxInFlight())
	}
}

// TestRingStability: consistent-hash placement must be stable under a
// shard count change — growing S to S+1 remaps roughly 1/(S+1) of the
// keyspace and never reshuffles keys between surviving shards.
func TestRingStability(t *testing.T) {
	ringOnly := func(n int) *Pool {
		return &Pool{ring: buildRing(n), draining: make([]atomic.Bool, n)}
	}
	p4, p5 := ringOnly(4), ringOnly(5)
	const keys = 4096
	moved, movedElsewhere := 0, 0
	counts := make([]int, 5)
	for k := uint64(0); k < keys; k++ {
		a, b := p4.ringLookup(k), p5.ringLookup(k)
		counts[b]++
		if a != b {
			moved++
			if b != 4 {
				movedElsewhere++ // remapped to a shard that existed before: forbidden
			}
		}
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d keys moved between surviving shards on grow", movedElsewhere)
	}
	if frac := float64(moved) / keys; frac > 0.35 {
		t.Fatalf("grow 4→5 moved %.0f%% of keys, want ≈20%%", frac*100)
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no keys (counts %v)", s, counts)
		}
	}
	// Same count → identical placement, run to run.
	q4 := ringOnly(4)
	for k := uint64(0); k < 64; k++ {
		if p4.ringLookup(k) != q4.ringLookup(k) {
			t.Fatalf("ring lookup not deterministic for key %d", k)
		}
	}
}

// TestSubmitKeyedSticky: the same key lands on the same shard every time,
// whatever the unkeyed rule would have picked.
func TestSubmitKeyedSticky(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4))
	defer shutdown(t, p)
	key := keyFor(t, p, 1)
	for i := 0; i < 8; i++ {
		var j runtime.Job[int]
		var err error
		if s := placedOne(t, p, func() { j, err = SubmitKeyed(p, key, func(*runtime.W) int { return i }) }); s != 1 {
			t.Fatalf("submit %d: keyed job ran on shard %d, want 1", i, s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if v := j.Wait(); v != i {
			t.Fatalf("submit %d: got %d", i, v)
		}
	}
}

// TestOverflowForward: a saturated home shard forwards the whole job to
// the other shard instead of shedding — the job completes there, the
// pool counts a forward (not a shed), and the executing shard's counters
// own the job.
func TestOverflowForward(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2))
	defer shutdown(t, p)
	release := make(chan struct{})
	defer close(release)

	key := keyFor(t, p, 0)
	var err error
	if s := placedOne(t, p, func() {
		_, err = SubmitKeyed(p, key, func(*runtime.W) int { <-release; return 0 })
	}); err != nil || s != 0 {
		t.Fatalf("blocker: err=%v shard=%d", err, s)
	}
	// Shard 0's single slot is held. The same key now overflows to shard 1.
	var j runtime.Job[int]
	s := placedOne(t, p, func() { j, err = SubmitKeyed(p, key, func(*runtime.W) int { return 42 }) })
	if err != nil {
		t.Fatalf("overflow submit: %v", err)
	}
	if s != 1 {
		t.Fatalf("forwarded job ran on shard %d, want 1", s)
	}
	if v := j.Wait(); v != 42 {
		t.Fatalf("forwarded job = %d, want 42", v)
	}
	if f, s := p.Forwarded(), p.Shed(); f != 1 || s != 0 {
		t.Fatalf("forwarded=%d shed=%d, want 1/0", f, s)
	}
	// Attribution: the executing shard's submitted counter owns the job;
	// the refusing shard records its local refusal as a shed.
	if n := p.Runtime(1).TelemetrySnapshot().Total(telemetry.CJobsSubmitted); n != 1 {
		t.Fatalf("shard 1 submitted = %d, want 1", n)
	}
	if n := p.Runtime(0).TelemetrySnapshot().Total(telemetry.CJobsShed); n != 1 {
		t.Fatalf("shard 0 local sheds = %d, want 1 (the refusal the pool forwarded)", n)
	}
}

// TestShedWhenAllSaturated: with every shard full the exchange finds no
// capacity and the job sheds — the skewed-placement load test in miniature:
// the first wave of refusals converts into forwards, only the overflow of
// the whole pool into sheds.
func TestShedWhenAllSaturated(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2))
	defer shutdown(t, p)
	release := make(chan struct{})
	defer close(release)
	// Skew everything onto shard 0's key: one job fills shard 0, the next
	// forwards to shard 1, the third finds the pool full and sheds.
	key := keyFor(t, p, 0)
	for i := 0; i < 2; i++ {
		if _, err := SubmitKeyed(p, key, func(*runtime.W) int { <-release; return 0 }); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	_, err := SubmitKeyed(p, key, func(*runtime.W) int { return 1 })
	if !errors.Is(err, runtime.ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if f, s := p.Forwarded(), p.Shed(); f != 1 || s != 1 {
		t.Fatalf("forwarded=%d shed=%d, want 1/1 (refusal converts to forward while capacity exists)", f, s)
	}
}

// TestLeastLoadedPlacement: unkeyed traffic drifts away from busy shards.
func TestLeastLoadedPlacement(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2))
	defer shutdown(t, p)
	release := make(chan struct{})
	defer close(release)
	var err error
	s1 := placedOne(t, p, func() { _, err = Submit(p, func(*runtime.W) int { <-release; return 0 }) })
	if err != nil {
		t.Fatal(err)
	}
	s2 := placedOne(t, p, func() { _, err = Submit(p, func(*runtime.W) int { return 1 }) })
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 {
		t.Fatalf("least-loaded placed both jobs on shard %d", s1)
	}
}

// TestSubmitAllPartialForward: a batch overflows as a batch — the
// remainder hops to the next shard before the rest sheds, one job admitted
// by each shard.
func TestSubmitAllPartialForward(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2))
	defer shutdown(t, p)
	release := make(chan struct{})
	defer close(release)
	fns := make([]func(*runtime.W) int, 3)
	for i := range fns {
		i := i
		fns[i] = func(*runtime.W) int { <-release; return i }
	}
	var jobs []runtime.Job[int]
	var err error
	d := placed(p, func() { jobs, err = SubmitAll(p, fns, nil) })
	if !errors.Is(err, runtime.ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated (one of three shed)", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("admitted %d of 3, want 2", len(jobs))
	}
	if d[0] != 1 || d[1] != 1 {
		t.Fatalf("submitted-jobs deltas by shard %v, want 1 and 1: the batch remainder did not hop shards", d)
	}
	if f, s := p.Forwarded(), p.Shed(); f != 1 || s != 1 {
		t.Fatalf("forwarded=%d shed=%d, want 1/1", f, s)
	}
}

// TestConservation: the bookkeeping identity across shards. Every offered
// job is either admitted by exactly one shard or counted in the pool's
// shed gauge, and at quiescence every admitted job has completed:
//
//	offered == Σ_shards submitted + pool shed
//	Σ submitted == Σ completed + Σ in_flight  (in_flight = 0 at quiescence)
func TestConservation(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4), WithMaxInFlight(8))
	defer shutdown(t, p)
	const offered = 400
	var jobs []runtime.Job[int]
	waited := 0 // jobs[:waited] have been consumed
	for i := 0; i < offered; i++ {
		j, err := Submit(p, func(*runtime.W) int { return i * i })
		if err != nil {
			if !errors.Is(err, runtime.ErrSaturated) {
				t.Fatal(err)
			}
			continue
		}
		jobs = append(jobs, j)
		if len(jobs)%16 == 0 { // let the pool breathe so some jobs complete
			for ; waited < len(jobs); waited++ {
				jobs[waited].Wait()
			}
		}
	}
	// Each handle is waited exactly once: a second Wait is ErrDoubleTouch.
	for ; waited < len(jobs); waited++ {
		jobs[waited].Wait()
	}
	var submitted, completed, inFlight int64
	for i := 0; i < p.Shards(); i++ {
		s := p.Runtime(i).TelemetrySnapshot()
		submitted += s.Total(telemetry.CJobsSubmitted)
		completed += s.Total(telemetry.CJobsCompleted)
		inFlight += int64(p.Runtime(i).InFlight())
	}
	if p.Offered() != offered {
		t.Fatalf("offered = %d, want %d", p.Offered(), offered)
	}
	if got := submitted + p.Shed(); got != offered {
		t.Fatalf("conservation: submitted(%d) + shed(%d) = %d, want offered %d",
			submitted, p.Shed(), got, offered)
	}
	if submitted != completed+inFlight {
		t.Fatalf("conservation: submitted %d != completed %d + in_flight %d",
			submitted, completed, inFlight)
	}
	if inFlight != 0 {
		t.Fatalf("in_flight = %d after every handle waited", inFlight)
	}
	if int64(len(jobs)) != submitted {
		t.Fatalf("handles returned %d != shards admitted %d", len(jobs), submitted)
	}
}

// TestRollingDrainUnderStorm: Shutdown while submitters hammer the pool.
// The rolling drain must (a) terminate, (b) complete or deterministically
// fail every handle it returned, and (c) keep the conservation identity —
// run under -race this is the router's memory-model test.
func TestRollingDrainUnderStorm(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4), WithMaxInFlight(16))
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
		finished atomic.Int64
		stop     atomic.Bool
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fns := make([]func(*runtime.W) int, 4)
			for i := range fns {
				fns[i] = func(*runtime.W) int { return g }
			}
			for i := 0; !stop.Load(); i++ {
				if i%3 == 0 {
					jobs, err := SubmitAll(p, fns, nil)
					if err != nil && !errors.Is(err, runtime.ErrSaturated) && !errors.Is(err, runtime.ErrClosed) {
						t.Errorf("SubmitAll: %v", err)
						return
					}
					accepted.Add(int64(len(jobs)))
					for k := range jobs {
						if _, err := jobs[k].WaitErr(); err != nil && !errors.Is(err, runtime.ErrClosed) {
							t.Errorf("WaitErr: %v", err)
						}
						finished.Add(1)
					}
				} else {
					j, err := SubmitKeyed(p, uint64(g*1000+i), func(*runtime.W) int { return i })
					if err != nil {
						if !errors.Is(err, runtime.ErrSaturated) && !errors.Is(err, runtime.ErrClosed) {
							t.Errorf("Submit: %v", err)
							return
						}
						continue
					}
					accepted.Add(1)
					if _, err := j.WaitErr(); err != nil && !errors.Is(err, runtime.ErrClosed) {
						t.Errorf("WaitErr: %v", err)
					}
					finished.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	shutdown(t, p) // rolling drain races the storm
	stop.Store(true)
	wg.Wait()
	if accepted.Load() != finished.Load() {
		t.Fatalf("accepted %d handles, %d reached a verdict", accepted.Load(), finished.Load())
	}
	if p.InFlight() != 0 {
		t.Fatalf("in_flight = %d after shutdown", p.InFlight())
	}
	// Post-shutdown submits fail fast and uniformly.
	if _, err := Submit(p, func(*runtime.W) int { return 0 }); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("post-shutdown Submit err = %v, want ErrClosed", err)
	}
	if _, err := SubmitAll(p, []func(*runtime.W) int{func(*runtime.W) int { return 0 }}, nil); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("post-shutdown SubmitAll err = %v, want ErrClosed", err)
	}
}

// TestShutdownIdempotent: double Shutdown and concurrent Shutdown callers
// all return after quiescence.
func TestShutdownIdempotent(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Shutdown() }()
	}
	wg.Wait()
	p.Shutdown()
	if !p.Closed() {
		t.Fatal("pool not closed")
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestPoolMetricsPage: what TestMetricsContract cannot say about the pool's
// page — the values move with the router's outcomes and each shard's jobs,
// a write error is sticky — plus the expvar map's shape.
func TestPoolMetricsPage(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2),
		WithRuntimeOptions(runtime.WithFlightRecorder(0)))
	defer shutdown(t, p)
	release := make(chan struct{})
	key := keyFor(t, p, 0)
	if _, err := SubmitKeyed(p, key, func(*runtime.W) int { <-release; return 0 }); err != nil {
		t.Fatal(err)
	}
	fwd, err := SubmitKeyed(p, key, func(*runtime.W) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	fwd.Wait()
	close(release)

	var sb strings.Builder
	if err := p.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{
		`futurelocality_pool_shards 2`,
		`futurelocality_pool_jobs_total{outcome="offered"} 2`,
		`futurelocality_pool_jobs_total{outcome="forwarded"} 1`,
		`futurelocality_pool_jobs_total{outcome="shed"} 0`,
		`futurelocality_jobs_total{shard="0",outcome="submitted"} 1`,
		`futurelocality_jobs_total{shard="1",outcome="submitted"} 1`,
		`futurelocality_jobs_total{shard="0",outcome="shed"} 1`,
		`futurelocality_workers{shard="1"} 1`,
		`futurelocality_jobs_max_in_flight{shard="0"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if err := p.WriteMetrics(failingWriter{}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteMetrics to a failing writer = %v, want the writer's error", err)
	}

	m := p.MetricsMap()
	if m["shards"] != 2 || m["jobs_forwarded"] != int64(1) {
		t.Fatalf("MetricsMap top level = %+v", m)
	}
	per, ok := m["shard"].(map[string]any)
	if !ok || per["0"] == nil || per["1"] == nil {
		t.Fatalf("MetricsMap shard sub-maps = %+v", m["shard"])
	}
}

// TestInteriorTasksStayHome: a job's spawned subtasks execute inside the
// runtime that admitted the job — the whole-jobs-only guarantee the
// envelope attribution rests on. The job spawns through its executing
// worker's own runtime and reports where the child ran.
func TestInteriorTasksStayHome(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2))
	defer shutdown(t, p)
	for i := 0; i < 4; i++ {
		j, err := Submit(p, func(w *runtime.W) int {
			rt := w.Runtime()
			f := runtime.Spawn(rt, w, func(w2 *runtime.W) int {
				if w2.Runtime() != rt {
					return -1
				}
				return 1
			})
			return f.Touch(w)
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := j.Wait(); v != 1 {
			t.Fatalf("interior task escaped its shard (got %d)", v)
		}
	}
}
