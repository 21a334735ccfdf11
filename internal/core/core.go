// Package core ties the substrates together into the paper's analysis: it
// classifies a computation, runs sequential and parallel executions, counts
// deviations and additional cache misses, compares them against the bounds
// of Theorems 8, 12, 16 and 18, and machine-checks the ordering lemmas
// (Lemma 4, 11 and 14) the proofs rest on.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
)

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// P is the processor count (default 4).
	P int
	// CacheLines is C; 0 disables cache simulation.
	CacheLines int
	// CacheKind selects the replacement policy (default LRU).
	CacheKind cache.Kind
	// Policy is the fork policy (default FutureFirst).
	Policy sim.ForkPolicy
	// Steal is the steal policy (default RandomSingle — the parsimonious
	// discipline the theorems assume; the envelope is granted only under
	// it).
	Steal sim.StealPolicy
	// Domains assigns each processor to a cache-locality (LLC) domain
	// (len must be P when non-nil; see sim.Config.Domains). Nil means one
	// flat domain.
	Domains []int
	// Trials is the number of random-steal executions (default 8).
	Trials int
	// Seed seeds trial i with Seed+i (default 1).
	Seed int64
	// Control overrides the per-trial random control (then Trials should
	// be 1, since a deterministic control repeats itself).
	Control sim.Control
	// CacheModel, when non-nil, runs the cache-cost pipeline: every trial
	// schedule is replayed through a per-worker cache set over a footprint
	// derived from (or declared by) the graph, and the report gains a
	// CacheCost section. Independent of CacheLines, which drives the
	// in-simulation declared-block caches.
	CacheModel *CacheModel
}

// Report is the outcome of Analyze: per-trial series, their summaries, and
// the relevant theorem bound.
type Report struct {
	Class dag.Class
	// Work, Span, Touches are T1, T∞ and t of the computation.
	Work, Span int64
	Touches    int
	P          int
	CacheLines int
	Policy     sim.ForkPolicy
	Steal      sim.StealPolicy

	// SeqMisses is the sequential baseline's miss count.
	SeqMisses int64
	// Deviations, AdditionalMisses, Steals hold one entry per trial.
	Deviations       []int64
	AdditionalMisses []int64
	Steals           []int64
	// Premature counts premature touches per trial (non-zero only for
	// unstructured computations).
	Premature []int

	// DeviationBound is the Theorem 8/12/16/18 envelope P·T∞² when the
	// classification grants one (future-first + structured single-touch or
	// local-touch, with or without super final node), else 0.
	DeviationBound int64
	// MissBound is C·DeviationBound (0 when no bound applies or C == 0).
	MissBound int64

	// CacheCost is the footprint-replay cost verdict, present only when
	// AnalyzeOptions.CacheModel was set.
	CacheCost *CacheCost
}

// BoundApplies reports whether the paper guarantees the O(P·T∞²) envelope
// for this class × fork × steal combination. The theorems assume the full
// parsimonious discipline: the future-first fork policy AND random single
// top-steals — any other cell of the (fork × steal) grid is outside their
// hypotheses, so no envelope is granted there.
func BoundApplies(c dag.Class, fork sim.ForkPolicy, steal sim.StealPolicy) bool {
	if fork != sim.FutureFirst || steal != sim.RandomSingle {
		return false
	}
	return c.SingleTouch || c.LocalTouch || c.SingleTouchSuperFinal || c.LocalTouchSuperFinal
}

// Trials is the account of a set of executions of one graph under one
// configuration, entry i for trial i, each measured against the same
// sequential baseline.
type Trials struct {
	Deviations, AdditionalMisses, Steals []int64
	Premature                            []int
}

// trialScratch is what a trial runs on: the engine, and for a cache-cost
// replay the cache sets — with their residency tables, as long as the largest
// footprint they have replayed — and the schedule buffers. A trial's schedule
// is replayed by the goroutine that simulated it, straight away, and never
// leaves the scratch.
type trialScratch struct {
	eng sim.Engine
	// set replays the trials' schedules and seq, a set of one worker, the
	// sequential baselines; each is kept for as long as the next replay asks
	// for the same configuration (setFor).
	set, seq *cache.Set
	order    []dag.NodeID
	who      []int32
}

// scratches is the process-wide free list of trial scratch, last in first
// out. A trial takes one and puts it back, so a scratch outlives the
// RunTrials call that made it and serves the next matrix cell, job or graph:
// in a run of analyses each goroutine at work allocates its engine tables,
// cache sets and buffers once and from then on only grows them. Nothing a
// scratch holds carries from one use to the next — Engine.Reset and
// Set.Replay both start from empty — so what a trial computes does not
// depend on which scratch it drew.
var scratches struct {
	sync.Mutex
	free []*trialScratch
}

func getScratch() *trialScratch {
	scratches.Lock()
	defer scratches.Unlock()
	n := len(scratches.free)
	if n == 0 {
		return new(trialScratch)
	}
	s := scratches.free[n-1]
	scratches.free = scratches.free[:n-1]
	return s
}

// putScratch keeps at most one idle scratch per P, as many as ForEach can put
// to work at once; one beyond that is left to the collector.
func putScratch(s *trialScratch) {
	scratches.Lock()
	defer scratches.Unlock()
	if len(scratches.free) < runtime.GOMAXPROCS(0) {
		scratches.free = append(scratches.free, s)
	}
}

// setFor returns *slot when it is the set cfg describes and replaces it with
// a new one when not.
func setFor(slot **cache.Set, cfg cache.SetConfig) (*cache.Set, error) {
	if *slot == nil || !(*slot).Serves(cfg) {
		set, err := cache.NewSet(cfg)
		if err != nil {
			return nil, err
		}
		*slot = set
	}
	return *slot, nil
}

// RunTrials executes g n times under cfg, trial i driven by control(i), and
// measures each run against seq, the sequential execution under cfg's fork
// policy and cache geometry (the paper compares like with like). cost, when
// non-nil, is a verdict prepared for n schedules at cfg.P workers
// (CacheBaseline.Cost): trial i's schedule is replayed through the cache
// model and its bill written to entry i. It is the one trial loop: Analyze
// runs it once, the profiler's (fork × steal) matrix once per cell with the
// cell's own baseline and seeds.
//
// A trial is one unit — simulate, measure, replay — and the units fan out
// (ForEach), so control must be safe to call from several goroutines at once;
// the control it returns is used by one. Entry i depends on i alone, whatever
// ran where.
func RunTrials(g *dag.Graph, cfg sim.Config, seq *sim.Result, n int, control func(i int) sim.Control, cost *CacheCost) (*Trials, error) {
	if cost != nil && (len(cost.ExtraMisses) != n || cost.P != cfg.P) {
		return nil, fmt.Errorf("core: cache cost prepared for %d trials at P=%d, asked for %d at P=%d",
			len(cost.ExtraMisses), cost.P, n, cfg.P)
	}
	seqPred := sim.NewSeqPred(seq.SeqOrder(), g.Len())
	tr := &Trials{
		Deviations:       make([]int64, n),
		AdditionalMisses: make([]int64, n),
		Steals:           make([]int64, n),
		Premature:        make([]int, n),
	}
	err := ForEach(n, func(i int) error {
		s := getScratch()
		defer putScratch(s)

		cfg := cfg
		cfg.Control = control(i)
		if err := s.eng.Reset(g, cfg); err != nil {
			return err
		}
		res, err := s.eng.Run()
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", i, err)
		}
		tr.Deviations[i] = seqPred.Deviations(res)
		tr.AdditionalMisses[i] = res.TotalMisses - seq.TotalMisses
		tr.Steals[i] = res.Steals
		tr.Premature[i] = sim.PrematureTouches(g, res)
		if cost != nil {
			return cost.charge(i, s, cfg.Domains, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// Analyze runs the full pipeline on g.
func Analyze(g *dag.Graph, opts AnalyzeOptions) (*Report, error) {
	if opts.P == 0 {
		opts.P = 4
	}
	if opts.Trials == 0 {
		opts.Trials = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Control != nil && opts.Trials != 1 {
		return nil, fmt.Errorf("core: custom Control requires Trials == 1 (got %d)", opts.Trials)
	}
	rep := &Report{
		Class:      dag.Classify(g),
		Work:       g.Work(),
		Span:       g.Span(),
		Touches:    g.NumTouches(),
		P:          opts.P,
		CacheLines: opts.CacheLines,
		Policy:     opts.Policy,
		Steal:      opts.Steal,
	}
	seq, err := sim.Sequential(g, opts.Policy, opts.CacheLines, opts.CacheKind)
	if err != nil {
		return nil, fmt.Errorf("core: sequential baseline: %w", err)
	}
	rep.SeqMisses = seq.TotalMisses
	granted := BoundApplies(rep.Class, opts.Policy, opts.Steal)
	if opts.CacheModel != nil {
		base, err := NewCacheBaseline(g, *opts.CacheModel, nil, seq)
		if err != nil {
			return nil, fmt.Errorf("core: cache cost: %w", err)
		}
		rep.CacheCost = base.Cost(opts.P, opts.Trials, granted)
	}
	tr, err := RunTrials(g, sim.Config{
		P:          opts.P,
		Policy:     opts.Policy,
		Steal:      opts.Steal,
		Domains:    opts.Domains,
		CacheLines: opts.CacheLines,
		CacheKind:  opts.CacheKind,
	}, seq, opts.Trials, func(i int) sim.Control {
		if opts.Control != nil {
			return opts.Control
		}
		return sim.NewRandomControl(opts.Seed + int64(i))
	}, rep.CacheCost)
	if err != nil {
		return nil, err
	}
	rep.Deviations, rep.AdditionalMisses, rep.Steals, rep.Premature =
		tr.Deviations, tr.AdditionalMisses, tr.Steals, tr.Premature

	if granted {
		rep.DeviationBound = int64(opts.P) * rep.Span * rep.Span
		if opts.CacheLines > 0 {
			rep.MissBound = int64(opts.CacheLines) * rep.DeviationBound
		}
	}
	return rep, nil
}

// WithinBound reports whether every trial stayed inside the deviation
// envelope (vacuously true when no bound applies).
func (r *Report) WithinBound() bool {
	if r.DeviationBound == 0 {
		return true
	}
	for _, d := range r.Deviations {
		if d > r.DeviationBound {
			return false
		}
	}
	return true
}

// String renders a human-readable report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "class:       %s\n", r.Class)
	fmt.Fprintf(&sb, "T1=%d  T∞=%d  t=%d  P=%d  C=%d  policy=%s  steal=%s\n",
		r.Work, r.Span, r.Touches, r.P, r.CacheLines, r.Policy, r.Steal)
	d := stats.Summarize(stats.Ints(r.Deviations))
	fmt.Fprintf(&sb, "deviations:  mean=%.1f max=%.0f", d.Mean, d.Max)
	if r.DeviationBound > 0 {
		fmt.Fprintf(&sb, "  bound P·T∞²=%d  within=%v", r.DeviationBound, r.WithinBound())
	}
	sb.WriteByte('\n')
	if r.CacheLines > 0 {
		m := stats.Summarize(stats.Ints(r.AdditionalMisses))
		fmt.Fprintf(&sb, "addl misses: mean=%.1f max=%.0f (seq=%d)", m.Mean, m.Max, r.SeqMisses)
		if r.MissBound > 0 {
			fmt.Fprintf(&sb, "  bound C·P·T∞²=%d", r.MissBound)
		}
		sb.WriteByte('\n')
	}
	s := stats.Summarize(stats.Ints(r.Steals))
	fmt.Fprintf(&sb, "steals:      mean=%.1f max=%.0f\n", s.Mean, s.Max)
	if r.CacheCost != nil {
		r.CacheCost.Render(&sb, "")
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Lemma checkers.

// LemmaViolation describes one failed ordering property.
type LemmaViolation struct {
	Lemma string
	Touch dag.NodeID
	Why   string
}

func (v LemmaViolation) String() string {
	return fmt.Sprintf("%s violated at touch %d: %s", v.Lemma, v.Touch, v.Why)
}

// CheckLemma4 verifies Lemma 4 on the sequential future-first execution of
// a structured single-touch computation: every touch's future parent
// executes before its local parent, and the right child of the
// corresponding fork immediately follows the future parent.
func CheckLemma4(g *dag.Graph) ([]LemmaViolation, error) {
	seq, err := sim.Sequential(g, sim.FutureFirst, 0, cache.LRU)
	if err != nil {
		return nil, err
	}
	var out []LemmaViolation
	for _, ti := range g.Touches {
		if ti.LocalParent == dag.None || ti.Fork == dag.None {
			continue
		}
		if seq.When[ti.FutureParent] >= seq.When[ti.LocalParent] {
			out = append(out, LemmaViolation{"Lemma 4", ti.Node,
				fmt.Sprintf("future parent %d at %d, local parent %d at %d",
					ti.FutureParent, seq.When[ti.FutureParent], ti.LocalParent, seq.When[ti.LocalParent])})
		}
		right := g.Nodes[ti.Fork].ContChild()
		if seq.When[right] != seq.When[ti.FutureParent]+1 {
			out = append(out, LemmaViolation{"Lemma 4", ti.Node,
				fmt.Sprintf("right child %d at %d does not immediately follow future parent %d at %d",
					right, seq.When[right], ti.FutureParent, seq.When[ti.FutureParent])})
		}
	}
	return out, nil
}

// CheckLemma11 verifies Lemma 11 on the sequential future-first execution
// of a structured local-touch computation: every touch's future parent
// executes before its local parent, and the right child of any fork
// immediately follows the last node of the future thread spawned there.
// With a super final node the same statement is Lemma 14; pass the
// super-final graph and the checker skips super-final touches, as the proof
// does.
func CheckLemma11(g *dag.Graph) ([]LemmaViolation, error) {
	seq, err := sim.Sequential(g, sim.FutureFirst, 0, cache.LRU)
	if err != nil {
		return nil, err
	}
	var out []LemmaViolation
	for _, ti := range g.Touches {
		if ti.LocalParent == dag.None || ti.Fork == dag.None {
			continue
		}
		if g.SuperFinal && ti.Node == g.Final {
			continue
		}
		if seq.When[ti.FutureParent] >= seq.When[ti.LocalParent] {
			out = append(out, LemmaViolation{"Lemma 11", ti.Node,
				fmt.Sprintf("future parent %d at %d, local parent %d at %d",
					ti.FutureParent, seq.When[ti.FutureParent], ti.LocalParent, seq.When[ti.LocalParent])})
		}
	}
	for tid := 1; tid < g.NumThreads(); tid++ {
		fork := g.ThreadFork[tid]
		if fork == dag.None {
			continue
		}
		right := g.Nodes[fork].ContChild()
		last := g.ThreadLast[tid]
		if seq.When[right] != seq.When[last]+1 {
			out = append(out, LemmaViolation{"Lemma 11", dag.NodeID(last),
				fmt.Sprintf("right child %d of fork %d at %d does not immediately follow thread %d's last node at %d",
					right, fork, seq.When[right], tid, seq.When[last])})
		}
	}
	return out, nil
}
