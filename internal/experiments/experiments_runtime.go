package experiments

import (
	"fmt"
	"time"

	"futurelocality/internal/runtime"
	"futurelocality/internal/stats"
)

// fibGoroutines is the naive goroutine-per-future baseline.
func fibGoroutines(n, cutoff int) int {
	if n < 2 {
		return n
	}
	if n < cutoff {
		return fibSeq(n)
	}
	ch := make(chan int, 1)
	go func() { ch <- fibGoroutines(n-1, cutoff) }()
	y := fibGoroutines(n-2, cutoff)
	return <-ch + y
}

// E9 measures the real work-stealing runtime: help-first Spawn/Touch vs
// work-first Join2 vs a goroutine-per-future baseline, across worker
// counts, reporting wall time and the scheduler counters that proxy the
// paper's locality story (steals, inline touches, blocked touches).
func E9(scale Scale) Result {
	n, cutoff, reps := 28, 16, 3
	if scale == Full {
		n, cutoff, reps = 34, 18, 5
	}
	workers := []int{1, 2, 4, 8}

	tb := stats.NewTable("variant", "workers", "time(ms,median)", "tasks", "steals",
		"inline", "helped", "blocked")
	want := fibSeq(n)
	for _, wk := range workers {
		for _, variant := range []struct {
			name string
			fork FibFork
		}{{"spawn(parent-first)", FibSpawn}, {"spawnwith(future-first)", FibDive}, {"join(work-first)", FibJoin}} {
			var times []float64
			rt := runtime.New(runtime.WithWorkers(wk))
			for r := 0; r < reps; r++ {
				start := time.Now()
				got := runtime.Run(rt, func(w *runtime.W) int { return Fib(rt, w, variant.fork, n, cutoff, 0) })
				times = append(times, float64(time.Since(start).Microseconds())/1000)
				if got != want {
					panic(fmt.Sprintf("fib(%d) = %d, want %d", n, got, want))
				}
			}
			st := rt.Stats()
			rt.Shutdown()
			s := stats.Summarize(times)
			tb.Add(variant.name, wk, s.Median, st.TasksRun/int64(reps), st.Steals/int64(reps),
				st.InlineTouches/int64(reps), st.HelpedTasks/int64(reps), st.BlockedTouches/int64(reps))
		}
	}
	// Goroutine baseline (scheduling delegated to the Go runtime).
	var times []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		if got := fibGoroutines(n, cutoff); got != want {
			panic("fibGoroutines wrong")
		}
		times = append(times, float64(time.Since(start).Microseconds())/1000)
	}
	s := stats.Summarize(times)
	tb.Add("goroutine-per-future", "GOMAXPROCS", s.Median, "-", "-", "-", "-", "-")

	// Stream pipeline (§6.1 construct): two stages over many items.
	items := 20000
	if scale == Full {
		items = 200000
	}
	for _, wk := range []int{1, 4} {
		rt := runtime.New(runtime.WithWorkers(wk))
		var ptimes []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			sum := runtime.Run(rt, func(w *runtime.W) int { return Pipeline(rt, w, items, 0) })
			ptimes = append(ptimes, float64(time.Since(start).Microseconds())/1000)
			want := 0
			for i := 0; i < items; i++ {
				want ^= i*31 + 7
			}
			if sum != want {
				panic("stream pipeline wrong")
			}
		}
		st := rt.Stats()
		rt.Shutdown()
		ps := stats.Summarize(ptimes)
		tb.Add(fmt.Sprintf("stream pipeline (%d items)", items), wk, ps.Median,
			st.TasksRun/int64(reps), st.Steals/int64(reps),
			st.InlineTouches/int64(reps), st.HelpedTasks/int64(reps), st.BlockedTouches/int64(reps))
	}

	md := tb.String() + "\nWork-first (Join2) runs the future thread first — the Theorem 8 policy; " +
		"its inline-touch count shows the continuation was usually popped back un-stolen, " +
		"the runtime analogue of the paper's low-deviation regime. The spawnwith(future-first) " +
		"variant dives into each future at the spawn (the per-spawn discipline override): its " +
		"touches are all ready-at-touch, reproducing the sequential future-first order per " +
		"worker, at the cost of exposing no continuation for theft from a lone spawn.\n"
	return Result{ID: "E9", Title: "Real work-stealing runtime (beyond paper: implementation ablation)", Markdown: md}
}
