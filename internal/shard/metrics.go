package shard

// The pool's exposition surface: the per-runtime observability stack
// merged across shards into one Prometheus page / expvar map, every
// per-shard sample carrying a `shard` label. The Prometheus text format
// allows each family's HELP/TYPE block exactly once, so the page is built
// family-by-family — gather all shards' samples for a family, emit, move
// on — rather than concatenating per-shard pages.

import (
	"io"
	"strconv"

	"futurelocality/internal/policy"
	"futurelocality/internal/telemetry"
)

// metricPrefix matches the per-runtime page so dashboards written against
// a single runtime keep working against a pool (samples gain a shard
// label; pool_* families are new).
const metricPrefix = "futurelocality_"

// WriteMetrics writes one Prometheus text-exposition page for the whole
// pool: router outcomes (offered/forwarded/shed), pool-wide gauges, every
// per-runtime family with a `shard` label on each sample, merged latency
// and queue-wait histograms, and per-shard flight-window gauges when the
// shards carry flight recorders.
func (p *Pool) WriteMetrics(w io.Writer) error {
	e := telemetry.NewExpo(w)
	n := len(p.rts)
	snaps := p.TelemetrySnapshots()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}

	e.Gauge(metricPrefix+"pool_shards", "Shard (member runtime) count of the pool.", float64(n))
	e.Gauge(metricPrefix+"pool_jobs_in_flight", "Jobs admitted and not yet completed, summed across shards.", float64(p.InFlight()))
	e.CounterVec(metricPrefix+"pool_jobs_total", "Router outcomes: offered = presented to the pool, forwarded = admitted by a non-home shard after the placed shard refused, shed = refused by every candidate shard.", []telemetry.LabeledValue{
		{Labels: []string{"outcome", "offered"}, Value: p.offered.Load()},
		{Labels: []string{"outcome", "forwarded"}, Value: p.forwarded.Load()},
		{Labels: []string{"outcome", "shed"}, Value: p.shed.Load()},
	})

	gaugePer := func(name, help string, get func(i int) int64) {
		samples := make([]telemetry.LabeledValue, n)
		for i := range samples {
			samples[i] = telemetry.LabeledValue{Labels: []string{"shard", ids[i]}, Value: get(i)}
		}
		e.GaugeVec(name, help, samples)
	}
	gaugePer(metricPrefix+"workers", "Worker count per shard.", func(i int) int64 { return int64(p.rts[i].Workers()) })
	gaugePer(metricPrefix+"domains", "Cache-locality (LLC) domain count of each shard's topology assignment.", func(i int) int64 { return int64(p.rts[i].NumDomains()) })
	gaugePer(metricPrefix+"jobs_in_flight", "Jobs admitted and not yet completed per shard.", func(i int) int64 { return int64(p.rts[i].InFlight()) })
	gaugePer(metricPrefix+"jobs_max_in_flight", "Admission cap per shard (0 = unlimited).", func(i int) int64 { return int64(p.rts[i].MaxInFlight()) })

	counterPer := func(name, help string, c telemetry.Counter) {
		samples := make([]telemetry.LabeledValue, n)
		for i := range samples {
			samples[i] = telemetry.LabeledValue{Labels: []string{"shard", ids[i]}, Value: snaps[i].Total(c)}
		}
		e.CounterVec(name, help, samples)
	}
	counterPer(metricPrefix+"tasks_run_total", "Tasks executed by each shard's worker pool.", telemetry.CTasksRun)
	counterPer(metricPrefix+"steal_attempts_total", "Steal probes per shard, successful or dry.", telemetry.CStealAttempts)

	subVec := func(name, help, key string, pairs []struct {
		val string
		c   telemetry.Counter
	}) {
		samples := make([]telemetry.LabeledValue, 0, n*len(pairs))
		for i := 0; i < n; i++ {
			for _, pr := range pairs {
				samples = append(samples, telemetry.LabeledValue{
					Labels: []string{"shard", ids[i], key, pr.val},
					Value:  snaps[i].Total(pr.c),
				})
			}
		}
		e.CounterVec(name, help, samples)
	}
	subVec(metricPrefix+"steals_total", "Claimed steals by shard and steal policy.", "policy", []struct {
		val string
		c   telemetry.Counter
	}{
		{policy.RandomSingle.String(), telemetry.CStealsRandomSingle},
		{policy.StealHalf.String(), telemetry.CStealsStealHalf},
		{policy.LastVictimAffinity.String(), telemetry.CStealsLastVictim},
		{policy.Hierarchical.String(), telemetry.CStealsHierarchical},
	})
	subVec(metricPrefix+"steals_locality_total", "Claimed steals by shard and cache locality (LLC-boundary crossing).", "locality", []struct {
		val string
		c   telemetry.Counter
	}{
		{"intra-domain", telemetry.CStealsIntraDomain},
		{"cross-domain", telemetry.CStealsCrossDomain},
	})
	subVec(metricPrefix+"spawns_total", "Spawns by shard and fork discipline.", "discipline", []struct {
		val string
		c   telemetry.Counter
	}{
		{policy.FutureFirst.String(), telemetry.CSpawnsFutureFirst},
		{policy.ParentFirst.String(), telemetry.CSpawnsParentFirst},
	})

	counterPer(metricPrefix+"inline_touches_total", "Touches satisfied by inline-running the task, per shard.", telemetry.CInlineTouches)
	counterPer(metricPrefix+"helped_tasks_total", "Tasks executed while helping at a touch, per shard.", telemetry.CHelpedTasks)
	counterPer(metricPrefix+"blocked_touches_total", "Touches that blocked with no work available, per shard.", telemetry.CBlockedTouches)
	counterPer(metricPrefix+"parks_total", "Workers that actually went to sleep, per shard.", telemetry.CParks)
	counterPer(metricPrefix+"wakeups_total", "Push-side signals to a parked worker, per shard.", telemetry.CWakeups)
	counterPer(metricPrefix+"poll_finds_total", "Dry episodes that ended with work found by polling, not in a park, per shard.", telemetry.CPollFinds)

	subVec(metricPrefix+"jobs_total", "Job admission outcomes by shard. A shard's shed counts its local refusals; refusals the pool then forwarded elsewhere appear as the executing shard's submitted (see pool_jobs_total for pool-level drops).", "outcome", []struct {
		val string
		c   telemetry.Counter
	}{
		{"submitted", telemetry.CJobsSubmitted},
		{"completed", telemetry.CJobsCompleted},
		{"shed", telemetry.CJobsShed},
	})

	e.Histogram(metricPrefix+"job_latency_seconds", "Submit to completion wall latency per job, merged across shards.",
		p.LatencyHist(), 1e9)
	e.Histogram(metricPrefix+"job_queue_wait_seconds", "Submit to first-execution delay per job, merged across shards.",
		p.QueueWaitHist(), 1e9)

	// Flight gauges, per shard, only for shards that carry a recorder —
	// each window is attributed to the runtime that executed its jobs.
	type flightRow struct {
		shard                              string
		events, deviations, budget, within int64
	}
	var rows []flightRow
	for i, rt := range p.rts {
		if !rt.FlightEnabled() {
			continue
		}
		env, err := rt.FlightEnvelope()
		if err != nil {
			continue
		}
		fr := flightRow{shard: ids[i], events: int64(env.Events), deviations: int64(env.Deviations), budget: int64(env.Budget)}
		if env.Within() {
			fr.within = 1
		}
		rows = append(rows, fr)
	}
	if len(rows) > 0 {
		flightVec := func(name, help string, get func(flightRow) int64) {
			samples := make([]telemetry.LabeledValue, len(rows))
			for i, r := range rows {
				samples[i] = telemetry.LabeledValue{Labels: []string{"shard", r.shard}, Value: get(r)}
			}
			e.GaugeVec(name, help, samples)
		}
		flightVec(metricPrefix+"flight_window_events", "Events currently held by each shard's flight-recorder window.", func(r flightRow) int64 { return r.events })
		flightVec(metricPrefix+"flight_window_deviations", "Measured deviations in each shard's flight window.", func(r flightRow) int64 { return r.deviations })
		flightVec(metricPrefix+"flight_window_envelope", "P*Tinf^2 deviation budget of each shard's flight window (0 = class grants no bound).", func(r flightRow) int64 { return r.budget })
		flightVec(metricPrefix+"flight_window_within_bound", "1 when a shard's flight-window deviations sit inside its envelope.", func(r flightRow) int64 { return r.within })
	}
	return e.Err()
}

// MetricsMap renders the pool's observability state as an expvar-compatible
// map: router outcomes and pool gauges at the top level, each shard's full
// per-runtime map nested under "shard".<i>.
func (p *Pool) MetricsMap() map[string]any {
	m := map[string]any{
		"shards":         len(p.rts),
		"placement":      p.place.String(),
		"jobs_offered":   p.offered.Load(),
		"jobs_forwarded": p.forwarded.Load(),
		"jobs_shed":      p.shed.Load(),
		"jobs_in_flight": p.InFlight(),
		"workers":        p.Workers(),
	}
	per := make(map[string]any, len(p.rts))
	for i, rt := range p.rts {
		per[strconv.Itoa(i)] = rt.MetricsMap()
	}
	m["shard"] = per
	return m
}
