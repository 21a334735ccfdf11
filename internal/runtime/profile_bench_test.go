package runtime

import (
	"testing"
	"time"

	"futurelocality/internal/profile"
)

// The benchmark guard for the profiling hooks: with profiling disabled the
// runtime must run at seed speed (the hooks reduce to one atomic pointer
// load each), and even enabled the recording must stay cheap. Run with
//
//	go test ./internal/runtime -bench=Profiling -benchtime=2s
//
// and compare the two fib numbers; TestDisabledRecordOverhead asserts the
// disabled-path cost directly so CI catches an accidental always-on cost.

func benchFib(b *testing.B, enabled bool) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if enabled {
			if err := rt.StartProfile(); err != nil {
				b.Fatal(err)
			}
		}
		if got := Run(rt, func(w *W) int { return profFib(rt, w, 22) }); got != 17711 {
			b.Fatalf("fib(22) = %d", got)
		}
		if enabled {
			if rt.StopProfile() == nil {
				b.Fatal("lost session")
			}
		}
	}
}

// BenchmarkFibProfilingDisabled is the throughput baseline with the hooks
// compiled in but no active session.
func BenchmarkFibProfilingDisabled(b *testing.B) { benchFib(b, false) }

// BenchmarkFibProfilingEnabled records every scheduling event of each run.
func BenchmarkFibProfilingEnabled(b *testing.B) { benchFib(b, true) }

// TestDisabledRecordOverhead asserts the disabled-mode hook cost is within
// noise: an emit with no active session is one atomic load and a
// branch, so even under the race detector a call must stay far below a
// microsecond. This guards against someone accidentally making the
// disabled path allocate, lock, or log.
func TestDisabledRecordOverhead(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	w := rt.workers[0]
	const iters = 1_000_000
	probe := profile.Event{Kind: profile.KindBegin, Task: 1, Arg: -1}
	start := time.Now()
	for i := 0; i < iters; i++ {
		rt.emit(w, probe)
	}
	perOp := time.Since(start) / iters
	if perOp > time.Microsecond {
		t.Fatalf("disabled-mode record costs %v/op; want well under 1µs (is the nil fast path gone?)", perOp)
	}
}
