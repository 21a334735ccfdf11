package main

import (
	"errors"
	"fmt"
	"time"

	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/profile"
	rt "futurelocality/internal/runtime"
	"futurelocality/internal/sim"
)

// The analyze workload times the paper-side pipeline: classify a DAG,
// simulate it under work stealing, charge the schedules their cache misses,
// and analyse a recorded runtime trace the same way. The scheduler runs
// only in set-up, to record that trace.
const (
	analyzeP      = 4  // simulated processors
	analyzeTrials = 8  // random-steal schedules per DAG
	analyzeLines  = 64 // C, lines per simulated private cache
	cacheSpec     = "64,lru"

	randNodes      = 3000 // size the random structured DAG is held to
	randCandidates = 48
)

// pinned are the exact counts the default seed must reproduce: the
// simulator and the cache replay are deterministic for a seed, so any other
// value is a behaviour change, not noise.
const (
	pinnedSeed        = 7
	pinnedDeviations  = 2134
	pinnedExtraMisses = 502
)

type analyzeInput struct {
	name  string
	g     *dag.Graph
	class string // dag.Classify's verdict at set-up
}

type analyzeInstance struct {
	inputs []analyzeInput
	trace  *profile.Trace
	model  *core.CacheModel
	nodes  int64 // DAG nodes one pass analyses
}

func (a *analyzeInstance) close() {}

// pickRandomStructured generates randCandidates graphs from r and keeps
// the one nearest randNodes. The generator is a random program that usually
// stops far short of its node budget, and a pass over a 10-node DAG cannot
// be compared with a pass over a 3000-node one. The candidate count is
// fixed so that set-up costs the same for every seed.
func pickRandomStructured(r *rng) *dag.Graph {
	var best *dag.Graph
	for i := 0; i < randCandidates; i++ {
		g := graphs.RandomStructured(int64(r.next()>>1), graphs.RandomConfig{MaxNodes: randNodes, MaxDepth: 12, MaxBlocks: 256})
		if best == nil || abs(g.Len()-randNodes) < abs(best.Len()-randNodes) {
			best = g
		}
	}
	return best
}

func abs(x int) int { return max(x, -x) }

// captureTrace records the scheduling events of three fib jobs on a real
// runtime, the input of the profile stages.
func captureTrace(e *env) (*profile.Trace, error) {
	r := rt.New(rt.WithWorkers(e.workers), rt.WithSeed(e.seed))
	defer r.Shutdown()
	if err := r.StartProfile(); err != nil {
		return nil, err
	}
	const n, cutoff = 17, 6
	var jobs []rt.Job[int]
	for i := 0; i < 3; i++ {
		j, err := rt.Submit(r, func(w *rt.W) int { return fib(w, nil, n, cutoff) })
		if err != nil {
			return nil, fmt.Errorf("submit traced job: %w", err)
		}
		jobs = append(jobs, j)
	}
	for i := range jobs {
		if got, err := jobs[i].WaitErr(); err != nil || got != fibSeq(n, cutoff) {
			return nil, fmt.Errorf("traced job: got %d, %v", got, err)
		}
	}
	tr := r.StopProfile()
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("profiling recorded no events")
	}
	return tr, nil
}

func setupAnalyze(e *env) (instance, error) {
	a := &analyzeInstance{}
	var err error
	if a.model, err = core.ParseCacheModel(cacheSpec); err != nil {
		return nil, err
	}
	fig6c, _ := graphs.Fig6c(4, 16, 4, true)
	for _, in := range []analyzeInput{
		{name: "fib", g: graphs.Fib(16, 2)},
		{name: "randstruct", g: pickRandomStructured(newRNG(e.seed, 4))},
		{name: "fig6c", g: fig6c},
	} {
		in.class = dag.Classify(in.g).String()
		a.inputs = append(a.inputs, in)
		a.nodes += int64(in.g.Len())
	}
	if a.trace, err = captureTrace(e); err != nil {
		return nil, err
	}
	// One checked pass belongs to set-up, as the first request does in the
	// other workloads.
	r := newResult("")
	ps := a.pass(e, r, nil, 0)
	if r.failed > 0 {
		return nil, errors.New(r.failures[0])
	}
	a.nodes += ps.reconNodes
	return a, nil
}

// passStats is what one pass measured: per-stage time summed over the
// inputs, and the exact counts.
type passStats struct {
	wallMs                          float64
	classifyMs, simMs, coreMs       float64
	reconstructMs, profileMs        float64
	simNodes                        int64
	deviations, steals, extraMisses int64
	reconNodes                      int64
	withinBound                     bool
}

// stage times one call into a layer and, on the traced run, records it.
func stage(tr *tracer, parent int, op int64, layer, name string, acc *float64, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	*acc += float64(t1.Sub(t0)) / 1e6
	if tr != nil {
		tr.add(span{name: name, layer: layer, start: tr.at(t0), end: tr.at(t1), parent: parent, op: op})
	}
}

// pass runs every stage on every input once and checks the verdicts.
func (a *analyzeInstance) pass(e *env, r *result, tr *tracer, op int64) passStats {
	ps := passStats{withinBound: true}
	start := time.Now()
	root := -1
	if tr != nil {
		// The pass span is added first so that stages can name it as their
		// parent; its end is filled in below.
		root = tr.add(span{name: "pass", layer: "bench", start: tr.at(start), parent: -1, op: op})
	}
	for _, in := range a.inputs {
		var class string
		stage(tr, root, op, "dag", "dag.Classify "+in.name, &ps.classifyMs, func() { class = dag.Classify(in.g).String() })
		r.check(class == in.class, "%s: classification changed from %s to %s", in.name, in.class, class)

		stage(tr, root, op, "sim", "sim.Simulate x8 "+in.name, &ps.simMs, func() {
			for i := 0; i < analyzeTrials; i++ {
				eng, err := sim.New(in.g, sim.Config{P: analyzeP, Policy: sim.FutureFirst, Steal: sim.RandomSingle,
					CacheLines: analyzeLines, Control: sim.NewRandomControl(e.seed + int64(i))})
				if err == nil {
					_, err = eng.Run()
				}
				r.check(err == nil, "%s: simulate trial %d: %v", in.name, i, err)
			}
			ps.simNodes += int64(analyzeTrials * in.g.Len())
		})

		var rep *core.Report
		var err error
		stage(tr, root, op, "core", "core.Analyze "+in.name, &ps.coreMs, func() {
			rep, err = core.Analyze(in.g, core.AnalyzeOptions{P: analyzeP, CacheLines: analyzeLines, Policy: sim.FutureFirst,
				Steal: sim.RandomSingle, Trials: analyzeTrials, Seed: e.seed, CacheModel: a.model})
		})
		if err != nil {
			r.check(false, "%s: core.Analyze: %v", in.name, err)
			continue
		}
		// Every input is structured, so the theorem grants the envelope at
		// future-first x random-single and each trial must sit inside it.
		ok := rep.DeviationBound > 0 && rep.WithinBound() && rep.CacheCost.WithinEnvelope()
		r.check(ok, "%s: outside the paper's envelope: deviations %v of %d", in.name, rep.Deviations, rep.DeviationBound)
		ps.withinBound = ps.withinBound && ok
		for i := range rep.Deviations {
			ps.deviations += rep.Deviations[i]
			ps.steals += rep.Steals[i]
			ps.extraMisses += rep.CacheCost.ExtraMisses[i]
		}
	}

	var recon *profile.Recon
	var err error
	stage(tr, root, op, "profile", "profile.Reconstruct", &ps.reconstructMs, func() { recon, err = profile.Reconstruct(a.trace) })
	if r.check(err == nil, "profile.Reconstruct: %v", err); err == nil {
		ps.reconNodes = int64(recon.Graph.Len())
	}
	var prep *profile.Report
	stage(tr, root, op, "profile", "profile.Analyze", &ps.profileMs, func() {
		prep, err = profile.Analyze(a.trace, profile.Options{P: analyzeP, CacheLines: analyzeLines, Trials: analyzeTrials,
			Seed: e.seed, CacheModel: a.model})
	})
	if r.check(err == nil, "profile.Analyze: %v", err); err == nil {
		r.check(prep.WithinBound() && len(prep.Jobs) == 3 && len(prep.Matrix) > 0,
			"profile report: within bound %v, %d jobs, %d matrix cells", prep.WithinBound(), len(prep.Jobs), len(prep.Matrix))
	}

	end := time.Now()
	ps.wallMs = float64(end.Sub(start)) / 1e6
	if tr != nil {
		tr.finish(root, end)
	}
	return ps
}

func (a *analyzeInstance) measure(e *env, r *result) {
	total := e.dur(1)
	scratch := newResult("")
	for end := time.Now().Add(e.warmup(total)); time.Now().Before(end); {
		a.pass(e, scratch, nil, 0)
	}

	var passes []passStats
	r.acct.begin(true)
	for start := time.Now(); time.Since(start) < total; {
		passes = append(passes, a.pass(e, r, e.tr, int64(len(passes)+1)))
	}
	r.acct.end()

	col := func(f func(passStats) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	walls := col(func(p passStats) float64 { return p.wallMs })
	last := passes[len(passes)-1]
	r.ops = a.nodes * int64(len(passes))
	r.cpuOps = r.ops
	r.e2e["ops_per_s"] = float64(r.ops) / r.acct.wall.Seconds()
	r.e2e["req_ms_p50"] = percentile(walls, 50)
	r.e2e["req_ms_p85"] = percentile(walls, 85)
	r.notes = append(r.notes, fmt.Sprintf("%d passes over %d DAG nodes", len(passes), a.nodes))

	if e.seed == pinnedSeed {
		r.check(last.deviations == pinnedDeviations, "sim.deviations: got %d, pinned %d for seed %d", last.deviations, pinnedDeviations, pinnedSeed)
		r.check(last.extraMisses == pinnedExtraMisses, "cache.extra_misses: got %d, pinned %d for seed %d", last.extraMisses, pinnedExtraMisses, pinnedSeed)
	}
	for _, p := range passes {
		if p.deviations != last.deviations || p.extraMisses != last.extraMisses {
			r.check(false, "simulated counts differ between passes of one seed: %d/%d vs %d/%d",
				p.deviations, p.extraMisses, last.deviations, last.extraMisses)
			break
		}
	}

	l := r.layer
	l["dag.classify_ms"] = median(col(func(p passStats) float64 { return p.classifyMs }))
	l["sim.nodes_per_s_c64"] = float64(last.simNodes) / (median(col(func(p passStats) float64 { return p.simMs })) / 1e3)
	l["core.analyze_ms"] = median(col(func(p passStats) float64 { return p.coreMs }))
	l["profile.reconstruct_ms"] = median(col(func(p passStats) float64 { return p.reconstructMs }))
	l["profile.analyze_ms"] = median(col(func(p passStats) float64 { return p.profileMs }))
	l["sim.deviations"] = float64(last.deviations)
	l["sim.steals"] = float64(last.steals)
	l["cache.extra_misses"] = float64(last.extraMisses)
	l["core.within_bound"] = boolMetric(last.withinBound)
}
