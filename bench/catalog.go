package main

import (
	"os"
	"runtime/debug"
	"strings"
)

// metricDef is one row of the catalogue. BENCHMARK.json at the repository
// root repeats these rows; TestCatalogueMatchesBenchmarkJSON keeps the two
// from drifting apart.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them; what each means on each workload is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"req_ms_p50", "ms", "lower", 0.25},
	{"req_ms_p85", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
}

// perLayer are the ladder's rungs, named layer.metric. They carry no bound:
// they explain a movement of an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{"deque.ptr_push_pop_ns", "ns", "lower", 0},
	{"deque.ptr_steal_ns", "ns", "lower", 0},
	{"deque.ptr_steal_contended_ns", "ns", "lower", 0},
	{"deque.ptr_steal_fail_frac", "ratio", "lower", 0},
	{"deque.ptr_stealn_ns_per_item", "ns", "lower", 0},
	{"deque.locked_push_steal_ns", "ns", "lower", 0},
	{"deque.locked_contended_ns", "ns", "lower", 0},

	{"runtime.spawn_touch_pf_ns", "ns", "lower", 0},
	{"runtime.spawn_touch_ff_ns", "ns", "lower", 0},
	{"runtime.spawn_touch_allocs", "allocs", "lower", 0},
	{"runtime.task_ns_w1", "ns", "lower", 0},
	{"runtime.overhead_vs_seq", "ratio", "lower", 0},
	{"runtime.speedup_w", "ratio", "higher", 0},
	{"runtime.steals_per_run", "count", "lower", 0},
	{"runtime.blocked_touches_per_run", "count", "lower", 0},
	{"runtime.helped_per_run", "count", "lower", 0},
	{"runtime.inline_touch_frac", "ratio", "higher", 0},
	{"runtime.wake_us_p50", "us", "lower", 0},
	{"runtime.wake_us_p99", "us", "lower", 0},
	{"runtime.stream_item_ns_w1", "ns", "lower", 0},
	{"runtime.degenerate", "count", "lower", 0},

	{"job.submit_call_ns_p50", "ns", "lower", 0},
	{"job.submit_call_ns_p99", "ns", "lower", 0},
	{"job.submit_wait_ns", "ns", "lower", 0},
	{"job.submit_wait_allocs", "allocs", "lower", 0},
	{"job.submitall16_ns_per_job", "ns", "lower", 0},
	{"job.queue_wait_ms_p50", "ms", "lower", 0},
	{"job.queue_wait_ms_p99", "ms", "lower", 0},
	{"job.own_ms_p99_r6k", "ms", "lower", 0},
	{"job.ms_p99_r2k", "ms", "lower", 0},
	{"job.ms_p50_r6k", "ms", "lower", 0},
	{"job.ms_p99_r6k", "ms", "lower", 0},
	{"job.kind_fib_ms_p50", "ms", "lower", 0},
	{"job.kind_randstruct_ms_p50", "ms", "lower", 0},
	{"job.kind_pipeline_ms_p50", "ms", "lower", 0},
	{"job.shed_frac", "ratio", "lower", 0},
	{"job.inflight_max", "count", "lower", 0},

	{"shard.submit_wait_ns", "ns", "lower", 0},
	{"shard.route_overhead_ns", "ns", "lower", 0},
	{"shard.keyed_submit_ns", "ns", "lower", 0},
	{"shard.forwarded_frac", "ratio", "lower", 0},
	{"shard.shed_frac", "ratio", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},

	{"telemetry.scrape_ms", "ms", "lower", 0},
	{"telemetry.scrape_bytes", "B", "lower", 0},
	{"telemetry.flight_ratio", "ratio", "lower", 0},
	{"stats.hist_observe_ns", "ns", "lower", 0},

	{"profile.capture_ratio", "ratio", "lower", 0},
	{"profile.events_per_task", "count", "lower", 0},
	{"profile.reconstruct_ms", "ms", "lower", 0},
	{"profile.analyze_ms", "ms", "lower", 0},

	{"sim.nodes_per_s", "1/s", "higher", 0},
	{"sim.nodes_per_s_c64", "1/s", "higher", 0},
	{"sim.deviations", "count", "lower", 0},
	{"sim.steals", "count", "lower", 0},

	{"cache.derive_footprint_ms", "ms", "lower", 0},
	{"cache.replay_accesses_per_s", "1/s", "higher", 0},
	{"cache.opt_ms", "ms", "lower", 0},
	{"cache.extra_misses", "count", "lower", 0},

	{"core.analyze_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.within_bound", "count", "higher", 0},

	{"dag.build_nodes_per_s", "1/s", "higher", 0},
	{"dag.classify_ms", "ms", "lower", 0},
	{"dag.codec_roundtrip_ms", "ms", "lower", 0},

	{"topology.detect_ms", "ms", "lower", 0},

	{"loadgen.late_ms_p99_r2k", "ms", "lower", 0},
	{"loadgen.late_ms_p99_r6k", "ms", "lower", 0},
	{"host.cal_ms_p50", "ms", "lower", 0},
	{"host.cal_spread", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// suite lists the workloads in the order the all-workloads run takes them.
// Each why is the reason the workload exists; BENCHMARK.json repeats it.
// Fork-join and analysis workloads run at GOMAXPROCS = W. The serve
// workloads have a spare P: the open-loop generator spins on its last
// millisecond to be punctual, and without a P of its own it starves a
// runnable worker (README.md has the measurement).
func suite() []workload {
	return []workload{
		{"fj-fine", "creator-touch fork-join at 0.3 us tasks: deque and spawn/touch do all the work, so always-on per-task cost shows here first",
			0, setupFJFine},
		{"fj-passed", "futures passed to a child that touches them: the same runtime layer with the inline fast path bypassed, so helped and blocked touches appear",
			0, setupFJPassed},
		{"serve-runtime", "small mixed jobs on one Runtime, closed loop then Poisson at 2000/s and 6000/s: admission, the global queue and park/wake dominate",
			1, setupServeRuntime},
		{"serve-pool", "the identical arrival schedule and job mix through shard.Pool: the router layer is the only difference from serve-runtime",
			1, setupServePool},
		{"analyze", "classify, simulate, cache replay and profile analysis with no scheduler in the timed part: a runtime change must not move it",
			0, setupAnalyze},
	}
}

func workloadNames() []string {
	var names []string
	for _, wl := range suite() {
		names = append(names, wl.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range suite() {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// cpuModel reads the host's CPU model for the provenance header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the go tool
// stamped one; a checkout that is not a git repository has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
