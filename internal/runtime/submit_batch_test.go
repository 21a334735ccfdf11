package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// batchLeaf is a package-level job body so batched-submission tests (which
// also run under -race, unlike alloc_test.go) never measure closure churn.
func batchLeaf(*W) int { return 7 }

func TestSubmitAllBasic(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	before := rt.TelemetrySnapshot()

	const k = 32
	fns := make([]func(*W) int, k)
	for i := range fns {
		fns[i] = batchLeaf
	}
	jobs, err := SubmitAll(rt, fns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != k {
		t.Fatalf("SubmitAll admitted %d jobs, want %d", len(jobs), k)
	}
	seen := make(map[uint64]bool, k)
	for i := range jobs {
		j := &jobs[i]
		if j.ID() == 0 || seen[j.ID()] {
			t.Fatalf("job %d: ID %d zero or duplicated", i, j.ID())
		}
		seen[j.ID()] = true
		if got := j.Wait(); got != 7 {
			t.Fatalf("job %d = %d, want 7", i, got)
		}
		if st := j.Stats(); st.ID != j.ID() || st.TasksRun < 1 {
			t.Fatalf("job %d stats = %+v", i, st)
		}
	}
	// Batch-consistent telemetry: the submitted counter moved by exactly the
	// batch size, and every admitted job completed.
	d := rt.TelemetrySnapshot().Sub(before)
	if got := d.Total(telemetry.CJobsSubmitted); got != k {
		t.Fatalf("jobs submitted delta = %d, want %d", got, k)
	}
	if got := d.Total(telemetry.CJobsCompleted); got != k {
		t.Fatalf("jobs completed delta = %d, want %d", got, k)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", rt.InFlight())
	}
}

// TestSubmitAllEmpty: a zero-length batch is a no-op, not an error.
func TestSubmitAllEmpty(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	jobs, err := SubmitAll[int](rt, nil, nil)
	if err != nil || len(jobs) != 0 {
		t.Fatalf("SubmitAll(nil) = %v jobs, err %v", jobs, err)
	}
}

// TestSubmitAllPartialAdmission pins the all-or-prefix contract at the cap:
// a batch larger than the remaining quota admits exactly the remaining
// tokens in argument order, returns the admitted prefix alongside
// ErrSaturated, and sheds (counts, not queues) the rest.
func TestSubmitAllPartialAdmission(t *testing.T) {
	const capJobs = 3
	rt := New(WithWorkers(2), WithMaxInFlight(capJobs))
	defer rt.Shutdown()
	before := rt.TelemetrySnapshot()

	gate := make(chan struct{})
	blocker := func(*W) int { <-gate; return 7 }
	fns := make([]func(*W) int, 8)
	for i := range fns {
		fns[i] = blocker
	}
	jobs, err := SubmitAll(rt, fns, nil)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("SubmitAll over cap: err = %v, want ErrSaturated", err)
	}
	if len(jobs) != capJobs {
		t.Fatalf("admitted %d jobs, want the %d-token prefix", len(jobs), capJobs)
	}
	if got := rt.InFlight(); got != capJobs {
		t.Fatalf("InFlight = %d, want %d", got, capJobs)
	}
	// The server is saturated for singles and batches alike.
	if _, err := Submit(rt, batchLeaf); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Submit on saturated server: err = %v, want ErrSaturated", err)
	}
	d := rt.TelemetrySnapshot().Sub(before)
	if got := d.Total(telemetry.CJobsShed); got != int64(len(fns)-capJobs)+1 {
		t.Fatalf("jobs shed delta = %d, want %d", got, len(fns)-capJobs+1)
	}
	if got := d.Total(telemetry.CJobsSubmitted); got != capJobs {
		t.Fatalf("jobs submitted delta = %d, want %d (shed jobs are not submissions)", got, capJobs)
	}

	// Draining the admitted prefix returns every token: a full batch now
	// admits completely.
	close(gate)
	for i := range jobs {
		if got := jobs[i].Wait(); got != 7 {
			t.Fatalf("job %d = %d, want 7", i, got)
		}
	}
	jobs2, err := SubmitAll(rt, []func(*W) int{batchLeaf, batchLeaf, batchLeaf}, nil)
	if err != nil || len(jobs2) != 3 {
		t.Fatalf("post-drain SubmitAll = %d jobs, err %v; want 3, nil", len(jobs2), err)
	}
	for i := range jobs2 {
		jobs2[i].Wait()
	}
}

// TestSubmitAllCloseMidBatch races Shutdown against batched submission:
// whatever the interleaving, every returned handle's Wait must be
// deterministic — a valid result or ErrClosed, never a hang or a panic.
func TestSubmitAllCloseMidBatch(t *testing.T) {
	fns := make([]func(*W) int, 24)
	for i := range fns {
		fns[i] = batchLeaf
	}
	for iter := 0; iter < 25; iter++ {
		rt := New(WithWorkers(2))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Shutdown()
		}()
		var jobs []Job[int]
		var err error
		for b := 0; b < 4; b++ {
			jobs, err = SubmitAll(rt, fns, jobs)
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("iter %d batch %d: err = %v, want nil or ErrClosed", iter, b, err)
				}
				break
			}
		}
		for i := range jobs {
			v, werr := jobs[i].WaitErr()
			switch {
			case werr == nil:
				if v != 7 {
					t.Fatalf("iter %d job %d = %d, want 7", iter, i, v)
				}
			case errors.Is(werr, ErrClosed):
				// The shutdown cancelled it first — the other deterministic
				// outcome.
			default:
				t.Fatalf("iter %d job %d: unexpected error %v", iter, i, werr)
			}
		}
		wg.Wait()
		if got := rt.InFlight(); got != 0 {
			t.Fatalf("iter %d: InFlight after shutdown = %d, want 0", iter, got)
		}
	}
}

// TestSubmitMixedStress runs fail-fast, queueing and batched submitters
// concurrently against one capped runtime (the -race workhorse for the
// admission word and the freelist): every admitted job must complete with
// the right result, no job may ever observe more jobs in flight than the
// cap, and submitted = completed = admitted with nothing left in flight.
// The second run is on a two-domain topology, so it is on record that
// nothing in admission depends on the domain count.
func TestSubmitMixedStress(t *testing.T) {
	t.Run("flat", func(t *testing.T) { submitMixedStress(t) })
	t.Run("2x2", func(t *testing.T) {
		topo, err := topology.Synthetic("2x2")
		if err != nil {
			t.Fatal(err)
		}
		submitMixedStress(t, WithTopology(topo))
	})
}

func submitMixedStress(t *testing.T, opts ...Option) {
	const (
		capJobs    = 24
		singles    = 4 // goroutines submitting one job at a time, shedding
		waiters    = 2 // goroutines submitting one job at a time, queueing
		batchers   = 4 // goroutines submitting 16-job batches
		iterations = 50
		batchSize  = 16
	)
	rt := New(append(opts, WithWorkers(4), WithMaxInFlight(capJobs))...)
	defer rt.Shutdown()
	before := rt.TelemetrySnapshot()

	var (
		wg          sync.WaitGroup
		admitted    atomic.Int64
		maxInFlight atomic.Int64
	)
	// The job body reads the gauge while it holds a slot itself.
	body := func(*W) int {
		n := int64(rt.InFlight())
		for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
		}
		return 7
	}
	for g := 0; g < singles+waiters; g++ {
		submit := Submit[int]
		if g >= singles {
			submit = SubmitWait[int]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				j, err := submit(rt, body)
				if err != nil {
					if g >= singles || !errors.Is(err, ErrSaturated) {
						t.Errorf("submitter %d: %v", g, err)
					}
					continue
				}
				admitted.Add(1)
				if got := j.Wait(); got != 7 {
					t.Errorf("single job = %d, want 7", got)
				}
			}
		}()
	}
	fns := make([]func(*W) int, batchSize)
	for i := range fns {
		fns[i] = body
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]Job[int], 0, batchSize)
			for i := 0; i < iterations; i++ {
				dst = dst[:0]
				var err error
				dst, err = SubmitAll(rt, fns, dst)
				if err != nil && !errors.Is(err, ErrSaturated) {
					t.Errorf("SubmitAll: %v", err)
					return
				}
				admitted.Add(int64(len(dst)))
				for k := range dst {
					if got := dst[k].Wait(); got != 7 {
						t.Errorf("batched job = %d, want 7", got)
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := maxInFlight.Load(); got < 1 || got > capJobs {
		t.Errorf("a job observed %d in flight, want 1..%d (the cap)", got, capJobs)
	}
	if want := int64(waiters * iterations); admitted.Load() < want {
		t.Errorf("admitted %d jobs, want at least the %d SubmitWait ones", admitted.Load(), want)
	}
	d := rt.TelemetrySnapshot().Sub(before)
	if got := d.Total(telemetry.CJobsSubmitted); got != admitted.Load() {
		t.Errorf("jobs submitted delta = %d, want %d admitted", got, admitted.Load())
	}
	if got := d.Total(telemetry.CJobsCompleted); got != admitted.Load() {
		t.Errorf("jobs completed delta = %d, want %d admitted", got, admitted.Load())
	}
	if got := rt.InFlight(); got != 0 {
		t.Errorf("InFlight after drain = %d, want 0", got)
	}
}
