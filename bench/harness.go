package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what one workload run is given. The program under test sees only
// inputs built from seed.
type env struct {
	seed    int64
	seconds float64 // total measured time of the run
	workers int     // W, the runtime's worker count
	tr      *tracer // nil on the untraced run
}

// dur returns the share f of the run's measured time.
func (e *env) dur(f float64) time.Duration {
	return time.Duration(e.seconds * f * float64(time.Second))
}

// warmup is the uncounted run-in before a measured phase: one second, or a
// quarter of the phase it precedes on a scaled-down run.
func (e *env) warmup(phase time.Duration) time.Duration {
	return min(time.Second, phase/4)
}

// short says the run is a scaled-down one (the smoke test, a probe), which
// repeats nothing: its numbers are checked for presence, not read.
func (e *env) short() bool { return e.seconds < 5 }

// workerCount is W = min(max(nproc, 2), 4): at least two workers so that
// stealing happens at all, at most four so the benchmark measures the same
// thing on every development machine it is likely to meet.
func workerCount() int { return min(max(runtime.NumCPU(), 2), 4) }

// result is what one workload run reports.
type result struct {
	workload   string
	gomaxprocs int
	attempted  int64
	failed     int64
	failures   []string // the first few, for the report
	ops        int64    // tasks, jobs or DAG nodes in the measured phases
	cpuOps     int64    // the ops of the phases whose CPU time is counted
	degenerate bool     // more than one worker and not one steal
	e2e        map[string]float64
	layer      map[string]float64
	notes      []string
	acct       account
	verdict    string
}

func newResult(name string) *result {
	return &result{workload: name, e2e: map[string]float64{}, layer: map[string]float64{}}
}

const maxFailureNotes = 8

// fail counts one failed operation or violated check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and fails it when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// account sums wall time, CPU time and allocation over the measured phases
// only; warm-ups fall between end and the next begin. CPU time is summed
// only over phases begun with cpu set: an open-loop phase spends most of a
// core on the generator's own punctuality, which says nothing of the program.
type account struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	start    time.Time
	startCPU time.Duration
	startMem runtime.MemStats
	countCPU bool
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (a *account) begin(cpu bool) {
	a.countCPU = cpu
	runtime.ReadMemStats(&a.startMem)
	a.startCPU = cpuTime()
	a.start = time.Now()
}

func (a *account) end() {
	a.wall += time.Since(a.start)
	if a.countCPU {
		a.cpu += cpuTime() - a.startCPU
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs += m.Mallocs - a.startMem.Mallocs
	a.bytes += m.TotalAlloc - a.startMem.TotalAlloc
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// measure runs the warm-ups and the measured phases and fills r.
	measure(e *env, r *result)
	close()
}

// workload is one entry of the suite.
type workload struct {
	name string
	why  string
	// spareP is how many Ps beyond W the workload runs with.
	spareP int
	setup  func(e *env) (instance, error)
}

// A run sets the workload up repeatedly and reports the median as setup_s,
// so that one slow page-in or one GC does not decide it: at least
// setupRepsMin times and until setupShare of the run's seconds is spent, at
// most setupRepsMax times. A scaled-down run sets up once.
const (
	setupRepsMin = 5
	setupRepsMax = 25
	setupShare   = 0.08
)

// calibration thresholds: beyond these the host was too busy or too uneven
// for a timing to mean anything, and the verdict says so in place of pass.
const (
	calSpreadMax = 0.20
	lateP99MaxMs = 0.5
)

// calKernel is a fixed loop of about 10 ms that touches nothing of the
// program: arithmetic, a walk over a private 4 MB array, and an atomic add on
// a line all W kernels share. The runtime's own cost is of these three
// kinds, so a host that slows one of them slows the kernel too.
func calKernel(mem []uint64, shared *atomic.Uint64) {
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x = xorshift(x)
		mem[x%uint64(len(mem))] += x
		if i%64 == 0 {
			shared.Add(x)
		}
	}
}

// calibrate samples how fast the host is running right now: n times, it
// runs the kernel on W goroutines at once and takes the time until the last
// has finished, in ms. On shared vCPUs that is more than one kernel's time,
// which a one-thread kernel would not show.
func calibrate(n, workers int) []float64 {
	mem := make([][]uint64, workers)
	for g := range mem {
		mem[g] = make([]uint64, 1<<19)
	}
	var shared atomic.Uint64
	out := make([]float64, n)
	for i := -1; i < n; i++ { // round -1 pages the arrays in and is not kept
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calKernel(mem[g], &shared)
			}()
		}
		wg.Wait()
		if i >= 0 {
			out[i] = float64(time.Since(start)) / 1e6
		}
	}
	return out
}

// runWorkload sets wl up, measures it and fills in the metrics every
// workload shares.
func runWorkload(wl workload, e *env) (*result, error) {
	r := newResult(wl.name)
	r.gomaxprocs = e.workers + wl.spareP
	prev := runtime.GOMAXPROCS(r.gomaxprocs)
	defer runtime.GOMAXPROCS(prev)

	calReps := 5
	if e.short() {
		calReps = 2
	}
	cal := calibrate(calReps, e.workers)

	var inst instance
	var setups []float64
	minReps := setupRepsMin
	if e.short() {
		minReps = 1
	}
	for began := time.Now(); len(setups) < minReps || (len(setups) < setupRepsMax && time.Since(began) < e.dur(setupShare)); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = wl.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	inst.measure(e, r)
	cal = append(cal, calibrate(calReps, e.workers)...)

	r.e2e["setup_s"] = median(setups)
	if r.ops > 0 {
		ops := float64(r.ops)
		r.e2e["cpu_us_per_op"] = float64(r.acct.cpu) / 1e3 / float64(r.cpuOps)
		r.e2e["allocs_per_op"] = float64(r.acct.mallocs) / ops
		r.e2e["alloc_bytes_per_op"] = float64(r.acct.bytes) / ops
	}
	r.layer["host.cal_ms_p50"] = median(cal)
	r.layer["host.cal_spread"] = (percentile(cal, 90) - percentile(cal, 10)) / median(cal)

	r.verdict = "pass"
	switch {
	case r.failed > 0:
		r.verdict = "fail"
	case r.layer["host.cal_spread"] > calSpreadMax,
		r.layer["loadgen.late_ms_p99_r2k"] > lateP99MaxMs,
		r.layer["loadgen.late_ms_p99_r6k"] > lateP99MaxMs:
		r.verdict = "too noisy"
	}
	return r, nil
}
