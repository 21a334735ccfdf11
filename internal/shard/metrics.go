package shard

// The pool's exposition surface: three router families of its own, then the
// per-runtime metrics table (internal/runtime, WriteMetricsPage) rendered
// over every shard with a `shard` label on each sample — so dashboards
// written against a single runtime keep working against a pool.

import (
	"io"
	"strconv"

	"futurelocality/internal/runtime"
	"futurelocality/internal/telemetry"
)

// WriteMetrics writes one Prometheus text-exposition page for the whole
// pool: router outcomes (offered/forwarded/shed), pool-wide gauges, then
// every per-runtime family with a `shard` label on each sample, merged
// latency and queue-wait histograms, and per-shard flight-window gauges for
// the shards that carry flight recorders.
func (p *Pool) WriteMetrics(w io.Writer) error {
	e := telemetry.NewExpo(w)
	e.Gauge("futurelocality_pool_shards", "Shard (member runtime) count of the pool.", float64(len(p.rts)))
	e.Gauge("futurelocality_pool_jobs_in_flight", "Jobs admitted and not yet completed, summed across shards.", float64(p.InFlight()))
	e.CounterVec("futurelocality_pool_jobs_total", "Router outcomes: offered = presented to the pool, forwarded = admitted by a non-home shard after the placed shard refused, shed = refused by every candidate shard.", []telemetry.LabeledValue{
		{Labels: []string{"outcome", "offered"}, Value: p.offered.Load()},
		{Labels: []string{"outcome", "forwarded"}, Value: p.forwarded.Load()},
		{Labels: []string{"outcome", "shed"}, Value: p.shed.Load()},
	})
	runtime.WriteMetricsPage(e, p.rts, "shard")
	return e.Err()
}

// MetricsMap renders the pool's observability state as an expvar-compatible
// map: router outcomes and pool gauges at the top level, each shard's full
// per-runtime map nested under "shard".<i>.
func (p *Pool) MetricsMap() map[string]any {
	m := map[string]any{
		"shards":         len(p.rts),
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
