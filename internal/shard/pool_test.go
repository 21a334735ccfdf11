package shard

import (
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"futurelocality/internal/runtime"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

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

// TestAutoShardsFromTopology: the default shard count is one per LLC
// domain, each member runtime built on a single-domain carve-out.
func TestAutoShardsFromTopology(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x2")), WithWorkers(4))
	defer p.Shutdown()
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
		if rt.NumDomains() != 1 {
			t.Fatalf("shard %d domains = %d, want 1 (workers stay inside one LLC)", i, rt.NumDomains())
		}
		want := "synthetic:2x2/domain" + string(rune('0'+i))
		if got := rt.Topology().Source; got != want {
			t.Fatalf("shard %d topology source = %q, want %q", i, got, want)
		}
	}
}

// TestWorkerAndCapSplit: totals split evenly with earlier shards taking
// the remainder, and every shard keeps at least one worker and one slot.
func TestWorkerAndCapSplit(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "3x1")), WithWorkers(5), WithMaxInFlight(7))
	defer p.Shutdown()
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
	defer p.Shutdown()
	key := keyFor(t, p, 1)
	for i := 0; i < 8; i++ {
		j, err := SubmitKeyed(p, key, func(*runtime.W) int { return i })
		if err != nil {
			t.Fatal(err)
		}
		if j.Shard() != 1 {
			t.Fatalf("submit %d: keyed job ran on shard %d, want 1", i, j.Shard())
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
	defer p.Shutdown()
	release := make(chan struct{})
	defer close(release)

	key := keyFor(t, p, 0)
	blocker, err := SubmitKeyed(p, key, func(*runtime.W) int { <-release; return 0 })
	if err != nil || blocker.Shard() != 0 {
		t.Fatalf("blocker: err=%v shard=%d", err, blocker.Shard())
	}
	// Shard 0's single slot is held. The same key now overflows to shard 1.
	j, err := SubmitKeyed(p, key, func(*runtime.W) int { return 42 })
	if err != nil {
		t.Fatalf("overflow submit: %v", err)
	}
	if j.Shard() != 1 {
		t.Fatalf("forwarded job ran on shard %d, want 1", j.Shard())
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
	defer p.Shutdown()
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
	defer p.Shutdown()
	release := make(chan struct{})
	defer close(release)
	j1, err := Submit(p, func(*runtime.W) int { <-release; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Submit(p, func(*runtime.W) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if j2.Shard() == j1.Shard() {
		t.Fatalf("least-loaded placed both jobs on shard %d", j1.Shard())
	}
}

// TestSubmitAllPartialForward: a batch overflows as a batch — the
// remainder hops to the next shard before the rest sheds, handles name
// their executing shard.
func TestSubmitAllPartialForward(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2))
	defer p.Shutdown()
	release := make(chan struct{})
	fns := make([]func(*runtime.W) int, 3)
	for i := range fns {
		i := i
		fns[i] = func(*runtime.W) int { <-release; return i }
	}
	jobs, err := SubmitAll(p, fns, nil)
	if !errors.Is(err, runtime.ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated (one of three shed)", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("admitted %d of 3, want 2", len(jobs))
	}
	if jobs[0].Shard() == jobs[1].Shard() {
		t.Fatalf("batch remainder did not hop shards: both on %d", jobs[0].Shard())
	}
	if f, s := p.Forwarded(), p.Shed(); f != 1 || s != 1 {
		t.Fatalf("forwarded=%d shed=%d, want 1/1", f, s)
	}
	close(release)
	for i := range jobs {
		jobs[i].Wait()
	}
}

// TestSubmitWaitQueues: a saturated pool first forwards, then queues at
// the home shard instead of shedding.
func TestSubmitWaitQueues(t *testing.T) {
	p := NewPool(WithTopology(synth(t, "2x1")), WithWorkers(2), WithMaxInFlight(2))
	defer p.Shutdown()
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		if _, err := Submit(p, func(*runtime.W) int { <-release; return 0 }); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	done := make(chan int, 1)
	go func() {
		j, err := SubmitWait(p, func(*runtime.W) int { return 7 })
		if err != nil {
			t.Error(err)
			done <- -1
			return
		}
		done <- j.Wait()
	}()
	select {
	case v := <-done:
		t.Fatalf("SubmitWait returned %d before a slot freed", v)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("queued job = %d, want 7", v)
	}
	if p.Shed() != 0 {
		t.Fatalf("SubmitWait shed %d jobs", p.Shed())
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
	defer p.Shutdown()
	const offered = 400
	var jobs []Job[int]
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
	p.Shutdown() // rolling drain races the storm
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
	if _, err := SubmitWait(p, func(*runtime.W) int { return 0 }); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("post-shutdown SubmitWait err = %v, want ErrClosed", err)
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
	defer p.Shutdown()
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
	defer p.Shutdown()
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
