package runtime

import (
	"testing"
	"time"

	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
)

// The benchmark guard for the always-on telemetry layer and the optional
// flight recorder. The telemetry counters cannot be compiled out — the PR's
// contract is that they are always live — so the guard here is the direct
// per-hook cost (one owner-local atomic add must stay in the
// low-nanosecond range, and the once-per-task counters must not be atomic
// at all) plus a fib throughput pair showing the flight
// recorder's marginal cost when it IS requested. Run with
//
//	go test ./internal/runtime -bench=FibFlight -benchtime=2s
//
// and compare the two numbers; the tests below assert the per-hook costs
// directly so CI catches an accidental slow path without a bench run.

// BenchmarkFibFlightOff is the throughput baseline: telemetry compiled in
// and live (it always is), no flight recorder.
func BenchmarkFibFlightOff(b *testing.B) { benchFlightFib(b, false) }

// BenchmarkFibFlightOn adds the always-recording flight ring.
func BenchmarkFibFlightOn(b *testing.B) { benchFlightFib(b, true) }

func benchFlightFib(b *testing.B, flight bool) {
	opts := []Option{WithWorkers(4)}
	if flight {
		opts = append(opts, WithFlightRecorder(4096))
	}
	rt := New(opts...)
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Run(rt, func(w *W) int { return profFib(rt, w, 22) }); got != 17711 {
			b.Fatalf("fib(22) = %d", got)
		}
	}
}

// TestTelemetryIncOverhead asserts the always-on counter hook cost: one
// uncontended atomic add on the worker's own cache-line-padded row. Even
// under the race detector a call must stay far below a microsecond; without
// it the real cost is single-digit nanoseconds. Guards against someone
// turning the hook into a map lookup, lock, or allocation.
func TestTelemetryIncOverhead(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	row := rt.tele.Row(0)
	const iters = 1_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		row.Inc(telemetry.CTasksRun)
	}
	perOp := time.Since(start) / iters
	if perOp > time.Microsecond {
		t.Fatalf("telemetry Inc costs %v/op; want well under 1µs", perOp)
	}
}

// TestPendingCountOverhead guards the counters that move once per task:
// counting a run is plain owner-local arithmetic that leaves the telemetry
// row alone — the row moves only in publish, every counterLag tasks, by one
// atomic add per counter — and nothing is lost between the two.
func TestPendingCountOverhead(t *testing.T) {
	rt := bareRuntime(1)
	w := rt.workers[0]
	for i := 0; i < counterLag-1; i++ {
		if w.countRun(execInline) {
			t.Fatalf("publication due after %d inline runs, want after %d", i+1, counterLag)
		}
	}
	if ran, inl := w.tele.Load(telemetry.CTasksRun), w.tele.Load(telemetry.CInlineTouches); ran != 0 || inl != 0 {
		t.Fatalf("counting %d runs moved the row to ran %d inline %d; only publish may", counterLag-1, ran, inl)
	}
	if !w.countRun(execInline) {
		t.Fatalf("no publication due after %d runs", counterLag)
	}
	w.pend = pending{}
	const iters = 1_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if w.countRun(execInline) {
			w.publish()
		}
	}
	perOp := time.Since(start) / iters
	w.publish()
	if ran, inl := w.tele.Load(telemetry.CTasksRun), w.tele.Load(telemetry.CInlineTouches); ran != iters || inl != iters {
		t.Fatalf("published ran %d inline %d after %d runs", ran, inl, iters)
	}
	if perOp > time.Microsecond {
		t.Fatalf("counting a run costs %v/op; want well under 1µs", perOp)
	}
}

// TestNoFlightRecordOverhead asserts the flight-disabled hook cost: with no
// recorder configured, the record path must reduce to a nil check on top of
// the (also disabled) profiling hook — the "off path is free" half of the
// telemetry overhead contract.
func TestNoFlightRecordOverhead(t *testing.T) {
	rt := New(WithWorkers(1)) // no WithFlightRecorder
	defer rt.Shutdown()
	w := rt.workers[0]
	const iters = 1_000_000
	probe := profile.Event{Kind: profile.KindBegin, Task: 1, Arg: -1}
	start := time.Now()
	for i := 0; i < iters; i++ {
		w.record(probe)
	}
	perOp := time.Since(start) / iters
	if perOp > time.Microsecond {
		t.Fatalf("no-flight record costs %v/op; want well under 1µs (did the nil fast path regress?)", perOp)
	}
}
