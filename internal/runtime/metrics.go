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
	"strconv"
	"strings"

	"futurelocality/internal/dag"
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

// DumpFlight snapshots the flight recorder's current window as a Trace —
// the same shape StopProfile returns, so the whole analysis stack applies —
// without interrupting recording: per log exactly the last size events (as
// WithFlightRecorder rounded it), or all of them while fewer were recorded.
func (rt *Runtime) DumpFlight() (*profile.Trace, error) {
	if rt.flight == nil {
		return nil, ErrNoFlight
	}
	return rt.flight.Collect(), nil
}

// FlightEnvelope reconstructs the flight window and returns its reading:
// measured deviations in the window against the P·T∞² budget its DAG grants
// under the fork disciplines its spawns recorded — so a window holding a
// parent-first fork, which a default runtime's Spawn makes, reads budget 0,
// as do the pooled and per-job verdicts of FlightReport on the same window.
// Cheap enough for a scrape path (no sim replay).
func (rt *Runtime) FlightEnvelope() (profile.Reading, error) {
	r, _, err := rt.flightReading()
	return r, err
}

// flightReading is FlightEnvelope plus the window's event count.
func (rt *Runtime) flightReading() (profile.Reading, int, error) {
	tr, err := rt.DumpFlight()
	if err != nil {
		return profile.Reading{}, 0, err
	}
	r, err := profile.WindowReading(tr, len(rt.workers))
	return r, tr.Len(), err
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

// scrape is one runtime's contribution to a page, gathered once: its index
// among the page's runtimes (the label value), the counter snapshot and,
// when the runtime carries a flight recorder whose window reconstructs, the
// window's reading and event count.
type scrape struct {
	rt     *Runtime
	id     string
	snap   telemetry.Snapshot
	env    profile.Reading
	events int
	flight bool
}

// family is one row of the metrics table: a Prometheus family and how to
// read its samples off a scrape. help is the HELP text on one runtime's own
// page, helpPer on a page that shows several runtimes side by side under a
// label (a shard.Pool's). typ is "gauge" or "counter"; a family with a key
// has one sample per entry, labelled key="<sample.label>"; a histogram
// family has hist instead of typ and samples and is merged across runtimes;
// a flight family, one whose name begins "flight_", is emitted only for
// runtimes whose scrape has an envelope, and omitted when none has.
type family struct {
	name, typ     string
	help, helpPer string
	key           string
	samples       []sample
	hist          func(*Runtime) stats.HistSnapshot
}

type sample struct {
	label string
	get   func(*scrape) int64
}

// one is the sample list of a single-sample family.
func one(get func(*scrape) int64) []sample { return []sample{{get: get}} }

// total reads one telemetry column, summed over the runtime's rows.
func total(c telemetry.Counter) func(*scrape) int64 {
	return func(s *scrape) int64 { return s.snap.Total(c) }
}

// families is the whole /metrics contract, in page order: scheduler counters
// (spawns by discipline), job
// admission outcomes including sheds, the in-flight gauge, the job latency and
// queue-wait histograms, and the rolling deviation-vs-envelope gauges of the
// flight window. A new counter is one row here (internal/shard's
// TestMetricsContract pins both renderings of every row).
var families = []family{
	{name: "workers", typ: "gauge", help: "Worker count of the runtime.", helpPer: "Worker count per shard.",
		samples: one(func(s *scrape) int64 { return int64(len(s.rt.workers)) })},
	{name: "jobs_in_flight", typ: "gauge", help: "Jobs admitted and not yet completed.", helpPer: "Jobs admitted and not yet completed per shard.",
		samples: one(func(s *scrape) int64 { return int64(s.rt.InFlight()) })},
	{name: "jobs_max_in_flight", typ: "gauge", help: "Admission cap (0 = unlimited).", helpPer: "Admission cap per shard (0 = unlimited).",
		samples: one(func(s *scrape) int64 { return int64(s.rt.MaxInFlight()) })},
	{name: "tasks_run_total", typ: "counter", help: "Tasks executed by the worker pool.", helpPer: "Tasks executed by each shard's worker pool.",
		samples: one(total(telemetry.CTasksRun))},
	{name: "steal_attempts_total", typ: "counter", help: "Steal probes, successful or dry.", helpPer: "Steal probes per shard, successful or dry.",
		samples: one(total(telemetry.CStealAttempts))},
	{name: "steals_total", typ: "counter", help: "Claimed steals.", helpPer: "Claimed steals per shard.",
		samples: one(func(s *scrape) int64 { return s.snap.Steals() })},
	{name: "spawns_total", typ: "counter", help: "Spawns by fork discipline.", helpPer: "Spawns by shard and fork discipline.",
		key: "discipline", samples: []sample{
			{dag.FutureFirst.String(), total(telemetry.CSpawnsFutureFirst)},
			{dag.ParentFirst.String(), total(telemetry.CSpawnsParentFirst)},
		}},
	{name: "inline_touches_total", typ: "counter", help: "Touches satisfied by inline-running the task.", helpPer: "Touches satisfied by inline-running the task, per shard.",
		samples: one(total(telemetry.CInlineTouches))},
	{name: "helped_tasks_total", typ: "counter", help: "Tasks executed while helping at a touch.", helpPer: "Tasks executed while helping at a touch, per shard.",
		samples: one(total(telemetry.CHelpedTasks))},
	{name: "blocked_touches_total", typ: "counter", help: "Touches that blocked with no work available.", helpPer: "Touches that blocked with no work available, per shard.",
		samples: one(total(telemetry.CBlockedTouches))},
	{name: "parks_total", typ: "counter", help: "Workers that actually went to sleep.", helpPer: "Workers that actually went to sleep, per shard.",
		samples: one(total(telemetry.CParks))},
	{name: "wakeups_total", typ: "counter", help: "Push-side signals to a parked worker.", helpPer: "Push-side signals to a parked worker, per shard.",
		samples: one(total(telemetry.CWakeups))},
	{name: "poll_finds_total", typ: "counter", help: "Dry episodes that ended with work found by polling, not in a park.", helpPer: "Dry episodes that ended with work found by polling, not in a park, per shard.",
		samples: one(total(telemetry.CPollFinds))},
	{name: "jobs_total", typ: "counter", help: "Job admission outcomes.", helpPer: "Job admission outcomes by shard. A shard's shed counts its local refusals; refusals the pool then forwarded elsewhere appear as the executing shard's submitted (see pool_jobs_total for pool-level drops).",
		key: "outcome", samples: []sample{
			{"submitted", total(telemetry.CJobsSubmitted)},
			{"completed", total(telemetry.CJobsCompleted)},
			{"shed", total(telemetry.CJobsShed)},
		}},
	{name: "job_latency_seconds", help: "Submit to completion wall latency per job.", helpPer: "Submit to completion wall latency per job, merged across shards.",
		hist: (*Runtime).LatencyHist},
	{name: "job_queue_wait_seconds", help: "Submit to first-execution delay per job.", helpPer: "Submit to first-execution delay per job, merged across shards.",
		hist: (*Runtime).QueueWaitHist},
	{name: "flight_window_events", typ: "gauge", help: "Events currently held by the flight-recorder window.", helpPer: "Events currently held by each shard's flight-recorder window.",
		samples: one(func(s *scrape) int64 { return int64(s.events) })},
	{name: "flight_window_deviations", typ: "gauge", help: "Measured deviations (steals+helped+blocked) in the flight window.", helpPer: "Measured deviations in each shard's flight window.",
		samples: one(func(s *scrape) int64 { return s.env.MaxDeviations })},
	{name: "flight_window_envelope", typ: "gauge", help: "P*Tinf^2 deviation budget of the flight window's DAG (0 = no bound granted).", helpPer: "P*Tinf^2 deviation budget of each shard's flight window (0 = no bound granted).",
		samples: one(func(s *scrape) int64 { return s.env.DeviationBound })},
	{name: "flight_window_within_bound", typ: "gauge", help: "1 when the flight window's deviations sit inside its envelope.", helpPer: "1 when a shard's flight-window deviations sit inside its envelope.",
		samples: one(func(s *scrape) int64 {
			if s.env.WithinBound() {
				return 1
			}
			return 0
		})},
}

// WriteMetricsPage renders the family table over rts onto e, each family
// once (the Prometheus text format allows a family's HELP/TYPE block exactly
// once, so a page over several runtimes is built family by family, never by
// concatenating pages). With label empty the samples carry no runtime label
// — one runtime's own page; otherwise every sample of runtime i is labelled
// label="i" and the helpPer texts apply. Histograms are merged across rts
// either way (the power-of-two buckets merge exactly).
func WriteMetricsPage(e *telemetry.Expo, rts []*Runtime, label string) {
	scrapes := make([]scrape, len(rts))
	for i, rt := range rts {
		s := &scrapes[i]
		s.rt, s.id, s.snap = rt, strconv.Itoa(i), rt.tele.Snapshot()
		if rt.flight != nil {
			env, events, err := rt.flightReading()
			s.env, s.events, s.flight = env, events, err == nil
		}
	}
	for _, f := range families {
		help := f.help
		if label != "" {
			help = f.helpPer
		}
		if f.hist != nil {
			var h stats.HistSnapshot
			for _, rt := range rts {
				h = h.Merge(f.hist(rt))
			}
			e.Histogram(metricPrefix+f.name, help, h, 1e9)
			continue
		}
		flight := strings.HasPrefix(f.name, "flight_")
		var vals []telemetry.LabeledValue
		for i := range scrapes {
			s := &scrapes[i]
			if flight && !s.flight {
				continue
			}
			for _, sm := range f.samples {
				var labels []string
				if label != "" {
					labels = append(labels, label, s.id)
				}
				if f.key != "" {
					labels = append(labels, f.key, sm.label)
				}
				vals = append(vals, telemetry.LabeledValue{Labels: labels, Value: sm.get(s)})
			}
		}
		if flight && len(vals) == 0 {
			continue
		}
		if f.typ == "gauge" {
			e.GaugeVec(metricPrefix+f.name, help, vals)
		} else {
			e.CounterVec(metricPrefix+f.name, help, vals)
		}
	}
}

// WriteMetrics writes one Prometheus text-exposition page (format 0.0.4)
// for this runtime: the family table, unlabelled.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	e := telemetry.NewExpo(w)
	WriteMetricsPage(e, []*Runtime{rt}, "")
	return e.Err()
}

// MetricsMap renders the same observability state as an expvar-compatible
// map (plain ints, floats, strings and nested maps — expvar.Func can
// publish it directly): counter totals, a per_worker breakdown, the job
// gauges, latency quantiles, and the flight-window envelope when present.
func (rt *Runtime) MetricsMap() map[string]any {
	m := telemetry.Map(rt.tele.Snapshot())
	m["workers"] = len(rt.workers)
	m["jobs_in_flight"] = rt.InFlight()
	m["jobs_max_in_flight"] = rt.MaxInFlight()
	m["job_latency_ns"] = histMap(rt.latencyHist.Snapshot())
	m["job_queue_wait_ns"] = histMap(rt.queueWaitHist.Snapshot())
	if rt.flight != nil {
		if env, events, err := rt.flightReading(); err == nil {
			m["flight"] = map[string]any{
				"events":       events,
				"tasks":        len(env.Recon.Tasks),
				"class":        env.Class.String(),
				"span":         env.Span,
				"deviations":   env.MaxDeviations,
				"envelope":     env.DeviationBound,
				"within_bound": env.WithinBound(),
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
