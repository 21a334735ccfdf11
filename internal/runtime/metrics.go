package runtime

// The runtime's exposition surface: always-on counters, latency histograms,
// and the flight-recorder window, rendered as a Prometheus text page
// (WriteMetrics), an expvar-compatible map (MetricsMap), and on-demand
// flight dumps (DumpFlight / FlightEnvelope / FlightReport). Everything
// here is read-side only — scraping never perturbs the scheduler beyond
// the atomic loads of a snapshot.

import (
	"errors"
	"io"

	"futurelocality/internal/policy"
	"futurelocality/internal/profile"
	"futurelocality/internal/stats"
	"futurelocality/internal/telemetry"
)

// ErrNoFlight reports a flight-recorder operation on a runtime built
// without WithFlightRecorder.
var ErrNoFlight = errors.New("runtime: no flight recorder (build the runtime with WithFlightRecorder)")

// TelemetrySnapshot snapshots the always-on counter matrix (one row per
// worker plus the external row). Subtract two snapshots for a rate window.
// Tasks run, inline touches and spawns trail each running worker by at most
// 256 (see Stats and W.publish); everything else is counted at the event.
func (rt *Runtime) TelemetrySnapshot() telemetry.Snapshot { return rt.tele.Snapshot() }

// LatencyHist snapshots the submit→done job latency histogram
// (nanosecond observations, one per completed job).
func (rt *Runtime) LatencyHist() stats.HistSnapshot { return rt.latencyHist.Snapshot() }

// QueueWaitHist snapshots the submit→first-execution queue-wait histogram
// (nanosecond observations, one per job whose root began executing).
func (rt *Runtime) QueueWaitHist() stats.HistSnapshot { return rt.queueWaitHist.Snapshot() }

// FlightEnabled reports whether the runtime carries a flight recorder.
func (rt *Runtime) FlightEnabled() bool { return rt.flight != nil }

// DumpFlight snapshots the flight recorder's current window as a Trace —
// the same shape StopProfile returns, so the whole analysis stack applies —
// without interrupting recording (the rings keep writing; the dump is the
// recent past, best-effort where writers lapped the reader).
func (rt *Runtime) DumpFlight() (*profile.Trace, error) {
	if rt.flight == nil {
		return nil, ErrNoFlight
	}
	return rt.flight.Collect(), nil
}

// FlightEnvelope reconstructs the flight window and returns the rolling
// live-envelope reading: measured deviations in the window vs the P·T∞²
// budget its DAG grants. Cheap enough for a scrape path (no sim replay).
func (rt *Runtime) FlightEnvelope() (profile.Envelope, error) {
	tr, err := rt.DumpFlight()
	if err != nil {
		return profile.Envelope{}, err
	}
	return profile.WindowEnvelope(tr, len(rt.workers))
}

// FlightReport runs the full predicted-vs-measured analysis on the flight
// window — DAG reconstruction, classification, envelope check, and sim
// replay — without the runtime ever having been started with profiling.
// opts.P defaults to the worker count. Heavier than FlightEnvelope; meant
// for an on-demand debug endpoint, not a scrape loop.
func (rt *Runtime) FlightReport(opts profile.Options) (*profile.Report, error) {
	tr, err := rt.DumpFlight()
	if err != nil {
		return nil, err
	}
	if opts.P == 0 {
		opts.P = len(rt.workers)
	}
	return profile.Analyze(tr, opts)
}

// metricPrefix namespaces every exposed metric family.
const metricPrefix = "futurelocality_"

// WriteMetrics writes one Prometheus text-exposition page (format 0.0.4):
// scheduler counters (steals split by policy, spawns by discipline), job
// admission outcomes including sheds, the in-flight gauge, the job latency
// and queue-wait histograms, and — when a flight recorder is present — the
// rolling deviation-vs-envelope gauges of the current window.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	e := telemetry.NewExpo(w)
	s := rt.tele.Snapshot()

	e.Gauge(metricPrefix+"workers", "Worker count of the runtime.", float64(len(rt.workers)))
	e.Gauge(metricPrefix+"domains", "Cache-locality (LLC) domain count of the topology assignment.", float64(rt.NumDomains()))
	e.Gauge(metricPrefix+"jobs_in_flight", "Jobs admitted and not yet completed.", float64(rt.InFlight()))
	e.Gauge(metricPrefix+"jobs_max_in_flight", "Admission cap (0 = unlimited).", float64(rt.MaxInFlight()))

	e.Counter(metricPrefix+"tasks_run_total", "Tasks executed by the worker pool.", s.Total(telemetry.CTasksRun))
	e.Counter(metricPrefix+"steal_attempts_total", "Steal probes, successful or dry.", s.Total(telemetry.CStealAttempts))
	e.CounterVec(metricPrefix+"steals_total", "Claimed steals by steal policy.", []telemetry.LabeledValue{
		{Labels: []string{"policy", policy.RandomSingle.String()}, Value: s.Total(telemetry.CStealsRandomSingle)},
		{Labels: []string{"policy", policy.StealHalf.String()}, Value: s.Total(telemetry.CStealsStealHalf)},
		{Labels: []string{"policy", policy.LastVictimAffinity.String()}, Value: s.Total(telemetry.CStealsLastVictim)},
		{Labels: []string{"policy", policy.Hierarchical.String()}, Value: s.Total(telemetry.CStealsHierarchical)},
	})
	e.CounterVec(metricPrefix+"steals_locality_total", "Claimed steals by cache locality: whether the thief crossed an LLC-domain boundary.", []telemetry.LabeledValue{
		{Labels: []string{"locality", "intra-domain"}, Value: s.Total(telemetry.CStealsIntraDomain)},
		{Labels: []string{"locality", "cross-domain"}, Value: s.Total(telemetry.CStealsCrossDomain)},
	})
	e.CounterVec(metricPrefix+"spawns_total", "Spawns by fork discipline.", []telemetry.LabeledValue{
		{Labels: []string{"discipline", policy.FutureFirst.String()}, Value: s.Total(telemetry.CSpawnsFutureFirst)},
		{Labels: []string{"discipline", policy.ParentFirst.String()}, Value: s.Total(telemetry.CSpawnsParentFirst)},
	})
	e.Counter(metricPrefix+"inline_touches_total", "Touches satisfied by inline-running the task.", s.Total(telemetry.CInlineTouches))
	e.Counter(metricPrefix+"helped_tasks_total", "Tasks executed while helping at a touch.", s.Total(telemetry.CHelpedTasks))
	e.Counter(metricPrefix+"blocked_touches_total", "Touches that blocked with no work available.", s.Total(telemetry.CBlockedTouches))
	e.Counter(metricPrefix+"parks_total", "Workers that actually went to sleep.", s.Total(telemetry.CParks))
	e.Counter(metricPrefix+"wakeups_total", "Push-side signals to a parked worker.", s.Total(telemetry.CWakeups))
	e.Counter(metricPrefix+"poll_finds_total", "Dry episodes that ended with work found by polling, not in a park.", s.Total(telemetry.CPollFinds))
	e.CounterVec(metricPrefix+"jobs_total", "Job admission outcomes.", []telemetry.LabeledValue{
		{Labels: []string{"outcome", "submitted"}, Value: s.Total(telemetry.CJobsSubmitted)},
		{Labels: []string{"outcome", "completed"}, Value: s.Total(telemetry.CJobsCompleted)},
		{Labels: []string{"outcome", "shed"}, Value: s.Total(telemetry.CJobsShed)},
	})

	e.Histogram(metricPrefix+"job_latency_seconds", "Submit to completion wall latency per job.",
		rt.latencyHist.Snapshot(), 1e9)
	e.Histogram(metricPrefix+"job_queue_wait_seconds", "Submit to first-execution delay per job.",
		rt.queueWaitHist.Snapshot(), 1e9)

	if rt.flight != nil {
		if env, err := rt.FlightEnvelope(); err == nil {
			e.Gauge(metricPrefix+"flight_window_events", "Events currently held by the flight-recorder window.", float64(env.Events))
			e.Gauge(metricPrefix+"flight_window_deviations", "Measured deviations (steals+helped+blocked) in the flight window.", float64(env.Deviations))
			e.Gauge(metricPrefix+"flight_window_envelope", "P*Tinf^2 deviation budget of the flight window's DAG (0 = class grants no bound).", float64(env.Budget))
			within := 0.0
			if env.Within() {
				within = 1
			}
			e.Gauge(metricPrefix+"flight_window_within_bound", "1 when the flight window's deviations sit inside its envelope.", within)
		}
	}
	return e.Err()
}

// MetricsMap renders the same observability state as an expvar-compatible
// map (plain ints, floats, strings and nested maps — expvar.Func can
// publish it directly): counter totals, a per_worker breakdown, the job
// gauges, latency quantiles, and the flight-window envelope when present.
func (rt *Runtime) MetricsMap() map[string]any {
	m := telemetry.Map(rt.tele.Snapshot())
	m["workers"] = len(rt.workers)
	m["domains"] = rt.NumDomains()
	m["topology_source"] = rt.topo.Source
	m["jobs_in_flight"] = rt.InFlight()
	m["jobs_max_in_flight"] = rt.MaxInFlight()
	m["job_latency_ns"] = histMap(rt.latencyHist.Snapshot())
	m["job_queue_wait_ns"] = histMap(rt.queueWaitHist.Snapshot())
	if rt.flight != nil {
		if env, err := rt.FlightEnvelope(); err == nil {
			m["flight"] = map[string]any{
				"events":       env.Events,
				"tasks":        env.Tasks,
				"class":        env.Class.String(),
				"span":         env.Span,
				"deviations":   env.Deviations,
				"envelope":     env.Budget,
				"within_bound": env.Within(),
			}
		}
	}
	return m
}

// histMap renders a histogram snapshot's headline numbers for the expvar map.
func histMap(h stats.HistSnapshot) map[string]any {
	qs := h.Quantiles(0.50, 0.95, 0.99)
	return map[string]any{
		"count": h.Count(),
		"mean":  h.Mean(),
		"p50":   qs[0],
		"p95":   qs[1],
		"p99":   qs[2],
	}
}
