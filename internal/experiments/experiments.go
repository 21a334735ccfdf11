// Package experiments implements the reproduction harness: one runner per
// experiment in DESIGN.md's per-experiment index (E1–E16), each regenerating
// the evidence for one theorem or figure of the paper and rendering a
// markdown table, listed once in Registry. cmd/paperbench drives them to
// produce the numbers recorded in EXPERIMENTS.md. The live workloads the
// runtime experiments (E9, E15, E16) and cmd/futureprof run are in
// workloads.go.
package experiments

import (
	"fmt"
	"strings"

	"futurelocality/internal/adversary"
	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
)

// Scale selects parameter presets.
type Scale int

const (
	// Quick keeps every run under a second — used by tests.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md preset.
	Full
)

// Result is one experiment's rendered outcome.
type Result struct {
	ID       string
	Title    string
	Markdown string
}

// seqBaseline runs the sequential execution or panics (experiment graphs
// are known-good; a failure is a harness bug).
func seqBaseline(g *dag.Graph, pol sim.ForkPolicy, c int) *sim.Result {
	seq, err := sim.Sequential(g, pol, c, cache.LRU)
	if err != nil {
		panic(err)
	}
	return seq
}

// run executes g under cfg on eng or panics, like seqBaseline. Each
// experiment runs one engine through all its executions, so the result is
// dead at the experiment's next run.
func run(eng *sim.Engine, g *dag.Graph, cfg sim.Config) *sim.Result {
	if err := eng.Reset(g, cfg); err != nil {
		panic(err)
	}
	res, err := eng.Run()
	if err != nil {
		panic(err)
	}
	return res
}

// scripted runs g on eng under a scripted control.
func scripted(eng *sim.Engine, g *dag.Graph, ctrl sim.Control, p int, pol sim.ForkPolicy, c int) *sim.Result {
	return run(eng, g, sim.Config{P: p, Policy: pol, CacheLines: c, Control: ctrl})
}

// e1Lines is E1's cache size C.
const e1Lines = 32

// randomTrials runs g future-first with E1's C under random controls
// (core.RunTrials, seeds seed+i) and returns the per-trial deviation,
// additional-miss and steal series.
func randomTrials(g *dag.Graph, p, trials int, seed int64) (devs, extra, steals []float64) {
	tr, err := core.RunTrials(g, sim.Config{P: p, Policy: sim.FutureFirst, CacheLines: e1Lines}, trials, core.Seeded(seed), nil)
	if err != nil {
		panic(err)
	}
	return stats.Ints(tr.Deviations), stats.Ints(tr.AdditionalMisses), stats.Ints(tr.Steals)
}

// ---------------------------------------------------------------------------
// E1 — Theorem 8 upper bound: future-first on structured single-touch
// computations stays inside O(P·T∞²) deviations / O(C·P·T∞²) extra misses.

// E1 sweeps span (fork-join trees of growing depth) and processors, under
// random work stealing, and reports the measured deviations against the
// P·T∞² envelope plus the fitted growth exponent in T∞.
func e1(scale Scale) Result {
	depths := []int{4, 5, 6, 7}
	procs := []int{2, 4, 8}
	trials := 8
	if scale == Full {
		depths = []int{4, 5, 6, 7, 8, 9, 10}
		procs = []int{2, 4, 8, 16, 32}
		trials = 16
	}

	tb := stats.NewTable("family", "P", "T1", "T∞", "t", "steals(mean)",
		"dev(mean)", "dev(max)", "P·T∞²", "maxdev/bound", "extraMiss(max)", "C·P·T∞²")
	for _, d := range depths {
		g := graphs.ForkJoinTree(d, 6, true)
		class, span := g.Class(), g.Span()
		for _, p := range procs {
			devs, extra, steals := randomTrials(g, p, trials, 1000+int64(d*37+p))
			ds := stats.Summarize(devs)
			es := stats.Summarize(extra)
			ss := stats.Summarize(steals)
			bound := core.Budget(class, sim.FutureFirst, p, span, 0).DeviationBound
			tb.Add(fmt.Sprintf("forkjoin(d=%d)", d), p, g.Work(), span, g.NumTouches(),
				ss.Mean, ds.Mean, ds.Max, bound, ds.Max/float64(bound), es.Max, e1Lines*bound)
		}
	}
	// Span-scaling shape check: fix the tree shape (so t and the steal
	// structure stay put) and scale T∞ through the leaf work. Theorem 8
	// allows deviations up to quadratic in T∞; random work stealing should
	// fit well below exponent 2.
	var spans, maxDevs []float64
	leafWorks := []int{4, 16, 64}
	if scale == Full {
		leafWorks = []int{4, 8, 16, 32, 64, 128, 256}
	}
	for _, lw := range leafWorks {
		g := graphs.ForkJoinTree(5, lw, true)
		devs, _, _ := randomTrials(g, 8, trials, 7000+int64(lw))
		spans = append(spans, float64(g.Span()))
		maxDevs = append(maxDevs, stats.Summarize(devs).Max)
	}
	slope := stats.LogLogSlope(spans, maxDevs)
	md := tb.String() + fmt.Sprintf(
		"\nSpan-scaling fit (forkjoin depth 5, leaf work 4→%d, P=8): max deviations grow as "+
			"T∞^**%.2f** — Theorem 8 allows up to T∞², and random stealing sits well below it.\n",
		leafWorks[len(leafWorks)-1], slope)

	// Random structured single-touch programs: the bound must hold for the
	// whole class, not just trees.
	tb2 := stats.NewTable("seed", "T1", "T∞", "t", "dev(max)", "P·T∞²", "within")
	nseeds := int64(6)
	if scale == Full {
		nseeds = 20
	}
	for seed := int64(0); seed < nseeds; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 600, MaxBlocks: 64})
		rep, err := core.Analyze(g, core.AnalyzeOptions{P: 8, CacheLines: e1Lines, Trials: trials, Seed: seed + 1})
		if err != nil {
			panic(err)
		}
		m := stats.Summarize(stats.Ints(rep.Deviations))
		tb2.Add(seed, rep.Work, rep.Span, rep.Touches, m.Max, rep.DeviationBound, rep.WithinBound())
	}
	md += "\nRandom structured single-touch programs (P=8):\n\n" + tb2.String()
	return Result{ID: "E1", Title: "Theorem 8 upper bound (future-first, random steals)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E2 — Theorem 9 lower bound: the Figure 6 constructions under the proof's
// schedule achieve Θ(k), Θ(k²), Θ(n·k²) deviations.

// E2 replays the adversarial schedules on Fig6a/6b/6c and reports measured
// deviations against the construction's target, and the cache-annotated
// variant's additional misses.
func e2(scale Scale) Result {
	var eng sim.Engine
	ks6a := []int{8, 16, 32}
	ks6b := []int{4, 8}
	cfg6c := []struct{ n, k int }{{2, 8}, {3, 8}}
	if scale == Full {
		ks6a = []int{8, 16, 32, 64, 128}
		ks6b = []int{4, 8, 16, 32}
		cfg6c = []struct{ n, k int }{{2, 8}, {4, 8}, {4, 16}, {8, 16}, {8, 32}}
	}

	tb := stats.NewTable("construction", "P", "T∞", "k target", "deviations", "dev/target", "steals")
	for _, k := range ks6a {
		g, info := graphs.Fig6a(k, 1, false)
		seq := seqBaseline(g, sim.FutureFirst, 0)
		res := scripted(&eng, g, adversary.Fig6a(info), 2, sim.FutureFirst, 0)
		d := sim.Deviations(seq.SeqOrder(), res)
		tb.Add(fmt.Sprintf("Fig6a(k=%d)", k), 2, g.Span(), 2*k+2, d, float64(d)/float64(2*k+2), res.Steals)
	}
	for _, k := range ks6b {
		g, info := graphs.Fig6b(k, 1, false)
		seq := seqBaseline(g, sim.FutureFirst, 0)
		res := scripted(&eng, g, adversary.Fig6b(info), 3, sim.FutureFirst, 0)
		d := sim.Deviations(seq.SeqOrder(), res)
		target := 2*k*k + 4*k
		tb.Add(fmt.Sprintf("Fig6b(k=%d)", k), 3, g.Span(), target, d, float64(d)/float64(target), res.Steals)
	}
	for _, c := range cfg6c {
		g, info := graphs.Fig6c(c.n, c.k, 1, false)
		seq := seqBaseline(g, sim.FutureFirst, 0)
		res := scripted(&eng, g, adversary.Fig6c(info), adversary.Procs6c(info), sim.FutureFirst, 0)
		d := sim.Deviations(seq.SeqOrder(), res)
		target := c.n * (2*c.k*c.k + 4*c.k)
		tb.Add(fmt.Sprintf("Fig6c(n=%d,k=%d)", c.n, c.k), 3*c.n, g.Span(), target, d,
			float64(d)/float64(target), res.Steals)
	}
	md := tb.String()

	// Cache-annotated Fig6a: extra misses Θ(C·k), sequential O(C + k).
	tb2 := stats.NewTable("k", "C", "seqMiss", "parMiss", "extra", "extra/(C·k)")
	kcs := []struct{ k, c int }{{16, 8}, {32, 16}}
	if scale == Full {
		kcs = []struct{ k, c int }{{16, 8}, {32, 8}, {32, 16}, {64, 16}, {64, 32}}
	}
	for _, kc := range kcs {
		g, info := graphs.Fig6a(kc.k, kc.c, true)
		seq := seqBaseline(g, sim.FutureFirst, kc.c)
		res := scripted(&eng, g, adversary.Fig6a(info), 2, sim.FutureFirst, kc.c)
		extra := res.TotalMisses - seq.TotalMisses
		tb2.Add(kc.k, kc.c, seq.TotalMisses, res.TotalMisses, extra,
			float64(extra)/float64(kc.c*kc.k))
	}
	md += "\nCache-annotated Fig6a (one steal):\n\n" + tb2.String()

	// Fully composed, cache-annotated Fig6c: every leaf's every phase
	// thrashes, so additional misses scale as n·k²·C — the theorem's miss
	// lower bound at full composition (T∞ = Θ(k·C) in the annotated DAG).
	tb3 := stats.NewTable("construction", "P", "T∞", "seqMiss", "parMiss", "extra", "n·k²·C", "ratio")
	cfg6cm := []struct{ n, k, c int }{{2, 8, 4}}
	if scale == Full {
		cfg6cm = []struct{ n, k, c int }{{2, 8, 4}, {4, 8, 8}, {4, 16, 8}}
	}
	for _, c := range cfg6cm {
		g, info := graphs.Fig6c(c.n, c.k, c.c, true)
		seq := seqBaseline(g, sim.FutureFirst, c.c)
		res := scripted(&eng, g, adversary.Fig6c(info), adversary.Procs6c(info), sim.FutureFirst, c.c)
		extra := res.TotalMisses - seq.TotalMisses
		target := int64(c.n) * int64(c.k) * int64(c.k) * int64(c.c)
		tb3.Add(fmt.Sprintf("Fig6c(n=%d,k=%d,C=%d)", c.n, c.k, c.c), 3*c.n, g.Span(),
			seq.TotalMisses, res.TotalMisses, extra, target, float64(extra)/float64(target))
	}
	md += "\nCache-annotated Fig6c (full composition):\n\n" + tb3.String()
	return Result{ID: "E2", Title: "Theorem 9 lower bound (Figure 6, adversarial schedule)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E3 — Theorem 10: parent-first on Fig7b/Fig8 with one steal.

// E3 measures the single-steal parent-first executions: deviations Ω(t·n),
// additional misses Ω(C·t·n), sequential misses O(C + t).
func e3(scale Scale) Result {
	var eng sim.Engine
	cfg7b := []struct{ k, n, c int }{{4, 16, 8}, {6, 32, 8}}
	cfg8 := []struct{ d, n, c int }{{4, 12, 6}}
	if scale == Full {
		cfg7b = []struct{ k, n, c int }{{4, 16, 8}, {6, 32, 8}, {8, 64, 16}, {8, 128, 16}}
		cfg8 = []struct{ d, n, c int }{{4, 12, 6}, {4, 24, 8}, {6, 24, 8}, {6, 48, 16}}
	}
	tb := stats.NewTable("construction", "t", "T∞", "seqMiss", "parMiss", "extra",
		"C·t·n", "extra/(C·t·n)", "deviations", "t·n")
	for _, c := range cfg7b {
		g, info := graphs.Fig7b(c.k, c.n, c.c, true)
		seq := seqBaseline(g, sim.ParentFirst, c.c)
		res := scripted(&eng, g, adversary.OneSteal(info.R, info.S[0]), 2, sim.ParentFirst, c.c)
		extra := res.TotalMisses - seq.TotalMisses
		d := sim.Deviations(seq.SeqOrder(), res)
		ctn := int64(c.c) * int64(c.n) // one terminal block: t·n with t=1 block
		tb.Add(fmt.Sprintf("Fig7b(k=%d,n=%d,C=%d)", c.k, c.n, c.c), g.NumTouches(), g.Span(),
			seq.TotalMisses, res.TotalMisses, extra, ctn, float64(extra)/float64(ctn), d, c.n)
	}
	for _, c := range cfg8 {
		g, info := graphs.Fig8(c.d, c.n, c.c, true)
		seq := seqBaseline(g, sim.ParentFirst, c.c)
		res := scripted(&eng, g, adversary.OneSteal(info.R, info.SRoot), 2, sim.ParentFirst, c.c)
		extra := res.TotalMisses - seq.TotalMisses
		d := sim.Deviations(seq.SeqOrder(), res)
		leaves := len(info.LeafBlocks)
		ctn := int64(c.c) * int64(leaves) * int64(c.n)
		tb.Add(fmt.Sprintf("Fig8(d=%d,n=%d,C=%d)", c.d, c.n, c.c), g.NumTouches(), g.Span(),
			seq.TotalMisses, res.TotalMisses, extra, ctn, float64(extra)/float64(ctn),
			d, leaves*c.n)
	}
	md := tb.String() + "\nAll runs: exactly one steal. " +
		"extra/(C·t·n) stabilizing to a constant reproduces Ω(C·t·T∞); " +
		"sequential misses stay O(C + t).\n"
	return Result{ID: "E3", Title: "Theorem 10 (parent-first, Figures 7–8, one steal)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E4 — who wins: future-first vs parent-first on the same computation.

// E4 compares the two fork policies on Fig8 (adversarial steal for
// parent-first, worst-of-seeds random for future-first) and on fork-join
// trees under random stealing.
func e4(scale Scale) Result {
	var eng sim.Engine
	cfg := []struct{ d, n, c int }{{4, 12, 6}}
	seeds := int64(6)
	if scale == Full {
		cfg = []struct{ d, n, c int }{{4, 12, 6}, {4, 24, 8}, {6, 24, 8}}
		seeds = 16
	}
	tb := stats.NewTable("graph", "policy", "schedule", "deviations", "extraMisses")
	for _, c := range cfg {
		g, info := graphs.Fig8(c.d, c.n, c.c, true)
		name := fmt.Sprintf("Fig8(d=%d,n=%d,C=%d)", c.d, c.n, c.c)

		seqPF := seqBaseline(g, sim.ParentFirst, c.c)
		resPF := scripted(&eng, g, adversary.OneSteal(info.R, info.SRoot), 2, sim.ParentFirst, c.c)
		tb.Add(name, "parent-first", "adversarial (1 steal)",
			sim.Deviations(seqPF.SeqOrder(), resPF), resPF.TotalMisses-seqPF.TotalMisses)

		seqFF := seqBaseline(g, sim.FutureFirst, c.c)
		var worstDev, worstExtra int64
		for s := int64(1); s <= seeds; s++ {
			res := scripted(&eng, g, sim.NewRandomControl(s), 2, sim.FutureFirst, c.c)
			if d := sim.Deviations(seqFF.SeqOrder(), res); d > worstDev {
				worstDev = d
			}
			if e := res.TotalMisses - seqFF.TotalMisses; e > worstExtra {
				worstExtra = e
			}
		}
		tb.Add(name, "future-first", fmt.Sprintf("worst of %d random runs", seeds), worstDev, worstExtra)
	}
	md := tb.String() + "\nFuture-first wins exactly as Section 5 predicts: the parent-first " +
		"column grows with C·t·n while future-first stays near the steal count.\n"
	return Result{ID: "E4", Title: "Policy comparison (Section 5.1 vs 5.2)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E5 — Theorem 12: local-touch computations under future-first.

// E5 analyzes pipelines (multi-future threads, Definition 3) against the
// O(P·T∞²) envelope and machine-checks Lemma 11.
func e5(scale Scale) Result {
	cfgs := []struct{ stages, items int }{{2, 8}, {4, 8}}
	trials := 8
	if scale == Full {
		cfgs = []struct{ stages, items int }{{2, 8}, {4, 8}, {4, 32}, {8, 32}, {8, 64}}
		trials = 16
	}
	tb := stats.NewTable("pipeline", "class", "P", "T∞", "t", "dev(max)", "P·T∞²", "within", "Lemma11 violations")
	for _, c := range cfgs {
		g, _ := graphs.Pipeline(c.stages, c.items, 3, true)
		rep, err := core.Analyze(g, core.AnalyzeOptions{P: 8, CacheLines: 32, Trials: trials})
		if err != nil {
			panic(err)
		}
		vs, err := core.CheckLemma11(g)
		if err != nil {
			panic(err)
		}
		m := stats.Summarize(stats.Ints(rep.Deviations))
		tb.Add(fmt.Sprintf("%dx%d", c.stages, c.items), rep.Class.String(), rep.P, rep.Span,
			rep.Touches, m.Max, rep.DeviationBound, rep.WithinBound(), len(vs))
	}
	return Result{ID: "E5", Title: "Theorem 12 (local-touch pipelines, future-first)",
		Markdown: tb.String()}
}

// ---------------------------------------------------------------------------
// E6 — Theorems 16/18: super final nodes.

// E6 builds computations with side-effect futures touched only by the super
// final node, checks Definitions 13/17 grant the bound, and verifies it.
func e6(scale Scale) Result {
	sizes := []int{8, 16}
	trials := 8
	if scale == Full {
		sizes = []int{8, 16, 32, 64}
		trials = 16
	}
	tb := stats.NewTable("sideEffectFutures", "class", "T∞", "dev(max)", "P·T∞²", "within")
	for _, n := range sizes {
		b := dag.NewBuilder()
		m := b.Main()
		m.Step()
		for i := 0; i < n; i++ {
			f := m.Fork()
			f.Steps(5)
			m.Step()
			if i%2 == 0 {
				m.Touch(f) // half are ordinary single-touch futures
			}
		}
		g, err := b.BuildSuperFinal()
		if err != nil {
			panic(err)
		}
		rep, err := core.Analyze(g, core.AnalyzeOptions{P: 8, CacheLines: 16, Trials: trials})
		if err != nil {
			panic(err)
		}
		m2 := stats.Summarize(stats.Ints(rep.Deviations))
		tb.Add(n, rep.Class.String(), rep.Span, m2.Max, rep.DeviationBound, rep.WithinBound())
	}
	return Result{ID: "E6", Title: "Theorems 16/18 (super final node)", Markdown: tb.String()}
}

// ---------------------------------------------------------------------------
// E7 — unstructured futures: premature touches (Figures 2–3).

// E7 measures premature touch checks on Figure 3 versus the structural
// impossibility on structured computations, plus the deviation comparison.
func e7(scale Scale) Result {
	var eng sim.Engine
	ts := []int{4, 8}
	if scale == Full {
		ts = []int{4, 8, 16, 32, 64}
	}
	tb := stats.NewTable("graph", "class", "touches t", "premature(adversarial)", "deviations")
	for _, t := range ts {
		g, info := graphs.Fig3(t, 4, false)
		seq := seqBaseline(g, sim.FutureFirst, 0)
		res := scripted(&eng, g, adversary.Fig3(info), 2, sim.FutureFirst, 0)
		tb.Add(fmt.Sprintf("Fig3(t=%d)", t), g.Class().String(), g.NumTouches(),
			sim.PrematureTouches(g, res), sim.Deviations(seq.SeqOrder(), res))
	}
	// Structured control group: premature touches are impossible.
	worst := 0
	runs := 0
	for seed := int64(0); seed < 20; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 400})
		res := scripted(&eng, g, sim.NewRandomControl(seed), 4, sim.FutureFirst, 0)
		if p := sim.PrematureTouches(g, res); p > worst {
			worst = p
		}
		runs++
	}
	md := tb.String() + fmt.Sprintf(
		"\nStructured control group: %d random structured programs × random schedules → max premature touches = **%d** "+
			"(structure makes premature touches impossible, so the runtime never needs to guard a touch "+
			"against an un-spawned future).\n", runs, worst)
	return Result{ID: "E7", Title: "Unstructured futures (Figure 3) vs structure", Markdown: md}
}

// ---------------------------------------------------------------------------
// E8 — Lemma invariants.

// E8 machine-checks Lemma 4 on random structured single-touch programs and
// the paper figures, and Lemma 11/14 on local-touch and super-final graphs.
func e8(scale Scale) Result {
	seeds := int64(50)
	if scale == Full {
		seeds = 500
	}
	l4 := 0
	for seed := int64(0); seed < seeds; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 300, MaxBlocks: 8})
		vs, err := core.CheckLemma4(g)
		if err != nil {
			panic(err)
		}
		l4 += len(vs)
	}
	g6a, _ := graphs.Fig6a(8, 4, true)
	g6c, _ := graphs.Fig6c(2, 4, 2, false)
	figs := []*dag.Graph{graphs.Fig4(), graphs.Fig5a(), graphs.Fig5b(), g6a, g6c,
		graphs.ForkJoinTree(5, 3, false), graphs.Fib(12, 3)}
	for _, g := range figs {
		vs, err := core.CheckLemma4(g)
		if err != nil {
			panic(err)
		}
		l4 += len(vs)
	}
	l11 := 0
	for _, c := range []struct{ s, i int }{{2, 4}, {4, 8}, {6, 16}} {
		g, _ := graphs.Pipeline(c.s, c.i, 2, false)
		vs, err := core.CheckLemma11(g)
		if err != nil {
			panic(err)
		}
		l11 += len(vs)
	}
	md := fmt.Sprintf(
		"- Lemma 4 checked on %d random structured single-touch programs + %d paper figures: **%d violations**\n"+
			"- Lemma 11/14 checked on local-touch pipelines: **%d violations**\n",
		seeds, len(figs), l4, l11)
	return Result{ID: "E8", Title: "Lemma 4/11/14 machine checks", Markdown: md}
}

// ---------------------------------------------------------------------------
// E10 — cache-policy robustness.

// E10 checks the paper's footnote that the upper bounds rest only on the
// deviation count and therefore hold for all simple cache replacement
// policies: the Fig6a lower-bound run and a fork-join upper-bound run are
// repeated under LRU, FIFO, set-associative LRU and direct-mapped caches.
func e10(scale Scale) Result {
	var eng sim.Engine
	k, C := 32, 16
	trials := 8
	if scale == Full {
		k, C = 64, 16
		trials = 16
	}
	tb := stats.NewTable("workload", "policy", "seqMiss", "parMiss(max)", "extra(max)", "C·P·T∞²")
	for _, kind := range cache.Kinds {
		g, info := graphs.Fig6a(k, C, true)
		seq, err := sim.Sequential(g, sim.FutureFirst, C, kind)
		if err != nil {
			panic(err)
		}
		res := run(&eng, g, sim.Config{P: 2, Policy: sim.FutureFirst, CacheLines: C,
			CacheKind: kind, Control: adversary.Fig6a(info)})
		bound := int64(C) * core.Budget(g.Class(), sim.FutureFirst, 2, g.Span(), 0).DeviationBound
		tb.Add(fmt.Sprintf("Fig6a(k=%d,C=%d) adversarial", k, C), kind.String(),
			seq.TotalMisses, res.TotalMisses, res.TotalMisses-seq.TotalMisses, bound)
	}
	for _, kind := range cache.Kinds {
		g := graphs.ForkJoinTree(6, 6, true)
		seq, err := sim.Sequential(g, sim.FutureFirst, C, kind)
		if err != nil {
			panic(err)
		}
		var worstPar, worstExtra int64
		for i := 0; i < trials; i++ {
			res := run(&eng, g, sim.Config{P: 8, Policy: sim.FutureFirst, CacheLines: C,
				CacheKind: kind, Control: sim.NewRandomControl(int64(i) + 1)})
			if res.TotalMisses > worstPar {
				worstPar = res.TotalMisses
			}
			if e := res.TotalMisses - seq.TotalMisses; e > worstExtra {
				worstExtra = e
			}
		}
		bound := int64(C) * core.Budget(g.Class(), sim.FutureFirst, 8, g.Span(), 0).DeviationBound
		tb.Add("forkjoin(d=6) random", kind.String(), seq.TotalMisses, worstPar, worstExtra, bound)
	}
	md := tb.String() + "\nThe additional-miss envelope is policy-independent, as the paper's " +
		"footnote claims (the bound is deviations × C regardless of replacement policy); " +
		"absolute miss counts differ (FIFO/direct-mapped pay conflict misses even sequentially).\n"
	return Result{ID: "E10", Title: "Cache-policy robustness (footnote 1: all simple policies)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E11 — deque-discipline ablation: top-stealing vs bottom-stealing thieves.

// E11 reruns the E1 workload with thieves robbing the bottom of the
// victim's deque (the node the victim would execute next) instead of the
// top. The parsimonious discipline of Section 3 — and every bound in the
// paper — assumes top-stealing; the ablation quantifies how much of the
// locality comes from that choice alone.
func e11(scale Scale) Result {
	var eng sim.Engine
	depths := []int{5, 6}
	trials := 8
	if scale == Full {
		depths = []int{5, 6, 7, 8, 9}
		trials = 16
	}
	const C = 32
	tb := stats.NewTable("family", "steal end", "steals(mean)", "dev(mean)", "dev(max)")
	for _, d := range depths {
		g := graphs.ForkJoinTree(d, 6, true)
		seq := seqBaseline(g, sim.FutureFirst, C)
		order := seq.SeqOrder()
		for _, bottom := range []bool{false, true} {
			var devs, steals []float64
			for i := 0; i < trials; i++ {
				res := run(&eng, g, sim.Config{
					P: 8, Policy: sim.FutureFirst, CacheLines: C,
					Control:           sim.NewRandomControl(3000 + int64(d*trials+i)),
					ThiefStealsBottom: bottom,
				})
				devs = append(devs, float64(sim.Deviations(order, res)))
				steals = append(steals, float64(res.Steals))
			}
			end := "top (paper)"
			if bottom {
				end = "bottom (ablation)"
			}
			ds := stats.Summarize(devs)
			ss := stats.Summarize(steals)
			tb.Add(fmt.Sprintf("forkjoin(d=%d)", d), end, ss.Mean, ds.Mean, ds.Max)
		}
	}
	md := tb.String() + "\nBottom-stealing robs the victim of its next node, so the victim " +
		"deviates immediately and repeatedly; top-stealing takes the oldest continuation, " +
		"which the victim would have reached last — the deque discipline is itself a " +
		"locality mechanism, as Section 3's model implies.\n"
	return Result{ID: "E11", Title: "Ablation: steal from top vs bottom of the deque", Markdown: md}
}

// ---------------------------------------------------------------------------
// E12 — LRU vs offline-optimal (Belady) on the adversarial traces.

// E12 asks how much of the worst-case thrash is inherent to the access
// pattern versus an LRU artifact: the per-processor block traces of the
// Theorem 9/10 adversarial executions are replayed through Belady's
// offline-optimal policy. The paper's model fixes LRU (and footnote 1
// extends the upper bounds to all simple policies); OPT is the unrealizable
// floor.
func e12(scale Scale) Result {
	var eng sim.Engine
	tb := stats.NewTable("trace", "C", "LRU misses", "OPT misses", "LRU/OPT")
	type cfg struct{ k, c int }
	cfgs := []cfg{{16, 8}, {32, 16}}
	if scale == Full {
		cfgs = []cfg{{16, 8}, {32, 8}, {32, 16}, {64, 16}}
	}
	for _, tc := range cfgs {
		g, info := graphs.Fig6a(tc.k, tc.c, true)
		res := scripted(&eng, g, adversary.Fig6a(info), 2, sim.FutureFirst, tc.c)
		var lru, opt int64
		for p := sim.ProcID(0); p < 2; p++ {
			lru += res.Misses[p]
			opt += cache.OptimalMisses(sim.BlockTrace(g, res, p), tc.c)
		}
		tb.Add(fmt.Sprintf("Fig6a(k=%d) thief+victim", tc.k), tc.c, lru, opt,
			float64(lru)/float64(opt))
	}
	for _, tc := range cfgs {
		g, info := graphs.Fig7b(6, 4*tc.c, tc.c, true)
		res := scripted(&eng, g, adversary.OneSteal(info.R, info.S[0]), 2, sim.ParentFirst, tc.c)
		var lru, opt int64
		for p := sim.ProcID(0); p < 2; p++ {
			lru += res.Misses[p]
			opt += cache.OptimalMisses(sim.BlockTrace(g, res, p), tc.c)
		}
		tb.Add(fmt.Sprintf("Fig7b(n=%d) one steal", 4*tc.c), tc.c, lru, opt,
			float64(lru)/float64(opt))
	}
	md := tb.String() + "\nThe adversarial traces are built to defeat LRU specifically " +
		"(ascending scans against descending evictions); OPT shows a large fraction of the " +
		"thrash is an LRU artifact of the same displaced execution order — consistent with " +
		"the paper bounding *additional* misses via deviations rather than via absolute " +
		"miss counts.\n"
	return Result{ID: "E12", Title: "Ablation: LRU vs offline-optimal on adversarial traces", Markdown: md}
}

// ---------------------------------------------------------------------------
// E13 — the deviation-chain decomposition (Theorem 8's counting argument).

// E13 machine-checks the combinatorial structure of Theorem 8's proof on
// concrete executions: every deviation lies in a chain anchored at a steal,
// there are at most as many chains as steals, and no chain is longer than
// T∞ — giving deviations ≤ steals · (2·T∞ + 1) pointwise, the inequality
// behind the O(P·T∞²) bound.
func e13(scale Scale) Result {
	var eng sim.Engine
	tb := stats.NewTable("workload", "P", "steals", "chains", "maxChainLen", "T∞",
		"deviations", "chainSlots", "uncovered")
	trials := 4
	seeds := int64(10)
	if scale == Full {
		trials = 8
		seeds = 30
	}
	// Scripted Fig6a (the proof's own scenario).
	{
		g, info := graphs.Fig6a(16, 1, false)
		seq := seqBaseline(g, sim.FutureFirst, 0)
		res := scripted(&eng, g, adversary.Fig6a(info), 2, sim.FutureFirst, 0)
		rep := core.DeviationChains(g, seq.SeqOrder(), res)
		slots := int64(0)
		for _, ch := range rep.Chains {
			slots += int64(2*len(ch.Touches)) + 1
		}
		tb.Add("Fig6a(k=16) adversarial", 2, rep.Steals, len(rep.Chains), rep.MaxChainLen,
			rep.Span, rep.Deviations, slots, len(rep.Uncovered))
	}
	// Random structured programs, random schedules.
	uncovered := 0
	worstRatio := 0.0
	for seed := int64(0); seed < seeds; seed++ {
		g := graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 500, MaxBlocks: 16})
		seq := seqBaseline(g, sim.FutureFirst, 0)
		for i := 0; i < trials; i++ {
			res := scripted(&eng, g, sim.NewRandomControl(seed*100+int64(i)), 8, sim.FutureFirst, 0)
			rep := core.DeviationChains(g, seq.SeqOrder(), res)
			uncovered += len(rep.Uncovered)
			if rep.Steals > 0 && rep.Deviations > 0 {
				slots := int64(0)
				for _, ch := range rep.Chains {
					slots += int64(2*len(ch.Touches)) + 1
				}
				if r := float64(rep.Deviations) / float64(slots); r > worstRatio {
					worstRatio = r
				}
			}
			if int64(rep.MaxChainLen) > rep.Span {
				panic("chain longer than span")
			}
		}
	}
	md := tb.String() + fmt.Sprintf(
		"\nRandom sweep: %d structured programs × %d random 8-processor runs → **%d uncovered deviations**; "+
			"worst deviations/chain-slots ratio %.2f (≤ 1 means the chain accounting fully explains every "+
			"deviation, which is Theorem 8's counting argument).\n",
		seeds, trials, uncovered, worstRatio)
	return Result{ID: "E13", Title: "Deviation-chain decomposition (Theorem 8's proof structure)", Markdown: md}
}

// ---------------------------------------------------------------------------
// E14 — scheduler ablation: parsimonious work stealing vs a central FIFO.

// E14 contrasts the deque discipline with a breadth-first central-queue
// scheduler on a fork-join workload with branch-private working sets. The
// central queue interleaves branches, so even one processor thrashes; the
// parsimonious scheduler keeps branches depth-first and pays only steal
// overheads. This is the baseline that motivates the paper's whole setting.
func e14(scale Scale) Result {
	var eng sim.Engine
	branches := []int{8, 16}
	if scale == Full {
		branches = []int{8, 16, 32, 64}
	}
	const C = 8
	tb := stats.NewTable("branches", "scheduler", "P", "misses", "vs deque-seq")
	for _, nb := range branches {
		b := dag.NewBuilder()
		m := b.Main()
		m.Step()
		var fs []*dag.Thread
		for i := 0; i < nb; i++ {
			f := m.Fork()
			for r := 0; r < 4; r++ {
				for j := 0; j < 4; j++ {
					f.Access(dag.BlockID(i*4 + j))
				}
			}
			fs = append(fs, f)
			m.Step()
		}
		for _, f := range fs {
			m.Touch(f)
		}
		m.Step()
		g := b.MustBuild()

		seq := seqBaseline(g, sim.FutureFirst, C)
		tb.Add(nb, "deque (paper model)", 1, seq.TotalMisses, 1.0)
		for _, p := range []int{1, 4} {
			res := run(&eng, g, sim.Config{P: p, CentralQueue: true, CacheLines: C,
				Control: sim.AlwaysActive{}})
			tb.Add(nb, "central FIFO", p, res.TotalMisses,
				float64(res.TotalMisses)/float64(seq.TotalMisses))
		}
		res := run(&eng, g, sim.Config{P: 4, Policy: sim.FutureFirst, CacheLines: C,
			Control: sim.NewRandomControl(int64(nb))})
		tb.Add(nb, "deque + random WS", 4, res.TotalMisses,
			float64(res.TotalMisses)/float64(seq.TotalMisses))
	}
	md := tb.String() + "\nBranch-private working sets (4 blocks × 4 rounds per branch, C=8): " +
		"the central FIFO round-robins branches and misses on nearly every access, even with " +
		"one processor; parsimonious work stealing preserves depth-first runs and stays near " +
		"the sequential miss count — the locality rationale for deque-based schedulers that " +
		"the paper's model encodes.\n"
	return Result{ID: "E14", Title: "Ablation: deque discipline vs central FIFO scheduler", Markdown: md}
}

// ---------------------------------------------------------------------------
// Registry.

// Experiment is one entry of Registry.
type Experiment struct {
	ID  string
	Run func(Scale) Result
}

// Registry lists every experiment once, in report order; cmd/paperbench
// iterates it. E9 lives in experiments_runtime.go because it
// measures wall time, E15 and E16 in experiments_profile.go because they run
// the real runtime under the profiler.
var Registry = []Experiment{
	{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5}, {"E6", e6}, {"E7", e7}, {"E8", e8},
	{"E9", e9}, {"E10", e10}, {"E11", e11}, {"E12", e12}, {"E13", e13}, {"E14", e14}, {"E15", e15}, {"E16", e16},
}

// Render formats results as a markdown document body.
func Render(rs []Result) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "## %s — %s\n\n%s\n", r.ID, r.Title, r.Markdown)
	}
	return sb.String()
}
