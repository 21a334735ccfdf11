// Package core ties the substrates together into the paper's analysis: it
// classifies a computation, runs sequential and parallel executions, counts
// deviations and additional cache misses, compares them against the bounds
// of Theorems 8, 12, 16 and 18, and machine-checks the ordering lemmas
// (Lemma 4, 11 and 14) the proofs rest on.
package core

import (
	"fmt"
	"runtime"
	"slices"
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
	// Steal is the steal policy: RandomSingle, the parsimonious discipline
	// the theorems assume and the only one there is.
	Steal sim.StealPolicy
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

	// Verdict judges the worst trial against the envelope the class grants
	// under Policy (Budget): the largest of Deviations against P·T∞², and
	// with C > 0 the largest of AdditionalMisses against C·(1+P·T∞²).
	Verdict

	// SeqMisses is the sequential baseline's miss count.
	SeqMisses int64
	// Deviations, AdditionalMisses, Steals hold one entry per trial.
	Deviations       []int64
	AdditionalMisses []int64
	Steals           []int64
	// Premature counts premature touches per trial (non-zero only for
	// unstructured computations).
	Premature []int

	// CacheCost is the footprint-replay cost verdict, present only when
	// AnalyzeOptions.CacheModel was set.
	CacheCost *CacheCost
}

// boundApplies reports whether the paper guarantees the O(P·T∞²) envelope
// for this class under this fork policy. The theorems assume the full
// parsimonious discipline: random single top-steals, the only thief the
// simulator and the runtime have, AND the future-first fork policy — under
// parent-first no envelope is granted.
func boundApplies(c dag.Class, fork sim.ForkPolicy) bool {
	if fork != sim.FutureFirst {
		return false
	}
	return c.SingleTouch || c.LocalTouch || c.SingleTouchSuperFinal || c.LocalTouchSuperFinal
}

// Verdict is the paper's one decision: the worst counts of a run or a set of
// trials against the budgets the theorems grant them. A model trial, a
// profiled run, a job and a flight window are all judged by it.
type Verdict struct {
	// MaxDeviations is the worst deviation count judged: the largest over a
	// set of trials, or a traced run's one measured count.
	MaxDeviations int64
	// DeviationBound is the Theorem 8/12/16/18 envelope P·T∞² where it is
	// granted (boundApplies), else 0.
	DeviationBound int64
	// MaxExtraMisses is the worst count of additional cache misses judged.
	MaxExtraMisses int64
	// MissBound is the cache corollary's C·(1+P·T∞²): one cold cache to begin
	// with plus at most C misses per deviation. 0 where the deviation
	// envelope is not granted or there is no cache (C = 0).
	MissBound int64
}

// Budget returns the verdict on a computation of class c and span T∞ run on
// p processors under fork, each with a cache of C = lines lines, its counts
// still zero for the caller to fill. It is the one place the envelope is
// computed.
func Budget(c dag.Class, fork sim.ForkPolicy, p int, span int64, lines int) Verdict {
	if !boundApplies(c, fork) {
		return Verdict{}
	}
	v := Verdict{DeviationBound: int64(p) * span * span}
	if lines > 0 {
		v.MissBound = int64(lines) * (1 + v.DeviationBound)
	}
	return v
}

// WithinBound reports whether every count that has a budget is at or under
// it (vacuously true where none is granted).
func (v Verdict) WithinBound() bool {
	return (v.DeviationBound == 0 || v.MaxDeviations <= v.DeviationBound) &&
		(v.MissBound == 0 || v.MaxExtraMisses <= v.MissBound)
}

// Trials is the account of a set of executions of one graph under one
// configuration, entry i for trial i, each measured against the same
// sequential baseline, whose miss count is SeqMisses.
type Trials struct {
	SeqMisses                            int64
	Deviations, AdditionalMisses, Steals []int64
	Premature                            []int
}

// trialScratch is what a trial runs on: the engine, the random control a
// trial reseeds, and for a cache-cost replay the cache sets, with their
// residency tables as long as the largest footprint they have replayed. A
// trial's schedule is replayed by the goroutine that simulated it, straight
// away, and never leaves the scratch. The facts a graph's memo keeps — its
// sequential execution, its cache baselines — are computed on a scratch too,
// held only while they are.
type trialScratch struct {
	eng sim.Engine
	rc  sim.RandomControl
	// set replays the trials' schedules and seq, a set of one worker, the
	// sequential baselines; check is the full replay a replay check compares
	// with (ReplayCheckEnv). Each is kept for as long as the next replay asks
	// for the same configuration (setFor).
	set, seq, check *cache.Set
	// order holds a sequential order while a baseline replays it.
	order []dag.NodeID
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

// putScratch keeps at most two idle scratches per P: ForEach puts at most one
// trial to work per P, and analyses fanned out beside one another (the
// profiler's jobs beside its pooled replay) each run trials of their own.
// One beyond that is left to the collector.
func putScratch(s *trialScratch) {
	scratches.Lock()
	defer scratches.Unlock()
	if len(scratches.free) < 2*runtime.GOMAXPROCS(0) {
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

// sequential is the one-worker execution of a graph under one fork policy,
// as the analyses read it: its order indexed for deviation counting, each
// node's predecessor in it. Caches count a run's misses and do not steer it,
// so the order depends on the graph and the policy alone, and it is computed
// once per graph and policy (sequentialOf). 4 bytes a node.
type sequential struct {
	pred sim.SeqPred
	err  error
}

// order writes the sequential order into buf, grown to g's length: the
// predecessors walked back from g's final node, which every node precedes.
func (seq *sequential) order(g *dag.Graph, buf []dag.NodeID) []dag.NodeID {
	order := slices.Grow(buf[:0], g.Len())[:g.Len()]
	pred := seq.pred.Preds()
	for i, v := len(order)-1, g.Final; i >= 0; i, v = i-1, pred[v] {
		order[i] = v
	}
	return order
}

// seqKey keys a graph's sequential execution in its memo.
type seqKey struct{ policy sim.ForkPolicy }

// sequentialOf returns the sequential execution of g under policy, run once
// per graph and policy on the engine of a trial scratch.
func sequentialOf(g *dag.Graph, policy sim.ForkPolicy) (*sequential, error) {
	seq := dag.Memo(g, seqKey{policy}, func(g *dag.Graph, k seqKey) *sequential {
		s := getScratch()
		defer putScratch(s)
		res, err := s.eng.Sequential(g, k.policy, 0, cache.LRU)
		if err != nil {
			return &sequential{err: fmt.Errorf("core: sequential baseline: %w", err)}
		}
		return &sequential{pred: sim.NewSeqPred(res.Order, g.Len())}
	})
	return seq, seq.err
}

// seqMissesOf returns the misses the sequential execution of g under policy
// takes in a private cache of lines lines of kind (0 lines: no cache), over
// the blocks g declares: the count sim.Sequential returns. It is the
// sequential bill of the graph's cache baseline under that cache, computed
// once per graph and key and shared with a cache model of the same cache.
func seqMissesOf(g *dag.Graph, policy sim.ForkPolicy, lines int, kind cache.Kind) (int64, error) {
	if lines <= 0 || len(g.RawBlocks) == 0 {
		return 0, nil
	}
	b, err := baselineOf(g, CacheModel{Lines: lines, Kind: kind}, policy)
	if err != nil {
		return 0, err
	}
	return b.SeqMisses, nil
}

// Seeded is the control of Analyze's trials: trial i reseeds its own random
// control with seed + i.
func Seeded(seed int64) func(int, *sim.RandomControl) sim.Control {
	return func(i int, rc *sim.RandomControl) sim.Control {
		rc.Reseed(seed + int64(i))
		return rc
	}
}

// RunTrials executes g n times under cfg, trial i driven by control(i, rc),
// and measures each run against the sequential execution under cfg's fork
// policy and cache geometry (the paper compares like with like), which g's
// memo keeps. rc is the random control the trial's scratch keeps, for control
// to reseed and return (Seeded) or to ignore. cost, when non-nil, is a
// verdict opened for n schedules at cfg.P workers against the same fork
// policy (NewCacheCost): trial i's schedule is replayed through the cache
// model and its bill written to entry i. It is the one trial loop: Analyze
// runs it once, the profiler's fork matrix once for its replayed cell.
//
// A trial is one unit — simulate, measure, replay — and the units fan out
// (ForEach), so control must be safe to call from several goroutines at once;
// the control it returns is used by one. Entry i depends on i alone, whatever
// ran where, and any number of calls may run at once, on one graph or many.
func RunTrials(g *dag.Graph, cfg sim.Config, n int, control func(i int, rc *sim.RandomControl) sim.Control, cost *CacheCost) (*Trials, error) {
	if cost != nil && (len(cost.ExtraMisses) != n || cost.P != cfg.P) {
		return nil, fmt.Errorf("core: cache cost prepared for %d trials at P=%d, asked for %d at P=%d",
			len(cost.ExtraMisses), cost.P, n, cfg.P)
	}
	if cost != nil && cost.policy != cfg.Policy {
		return nil, fmt.Errorf("core: cache cost measured against a %s sequential execution, trials against a %s one",
			cost.policy, cfg.Policy)
	}
	seq, err := sequentialOf(g, cfg.Policy)
	if err != nil {
		return nil, err
	}
	seqMisses, err := seqMissesOf(g, cfg.Policy, cfg.CacheLines, cfg.CacheKind)
	if err != nil {
		return nil, err
	}
	if cost != nil && cost.check {
		if err := cost.checkBaseline(); err != nil {
			return nil, err
		}
	}
	counts := make([]int64, 3*n)
	tr := &Trials{
		SeqMisses:        seqMisses,
		Deviations:       counts[:n:n],
		AdditionalMisses: counts[n : 2*n : 2*n],
		Steals:           counts[2*n:],
		Premature:        make([]int, n),
	}
	err = ForEach(n, func(i int) error {
		s := getScratch()
		defer putScratch(s)

		cfg := cfg
		cfg.Control = control(i, &s.rc)
		if err := s.eng.Reset(g, cfg); err != nil {
			return err
		}
		res, err := s.eng.Run()
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", i, err)
		}
		tr.Deviations[i] = seq.pred.Deviations(res)
		tr.AdditionalMisses[i] = res.TotalMisses - seqMisses
		tr.Steals[i] = res.Steals
		tr.Premature[i] = sim.PrematureTouches(g, res)
		if cost != nil {
			return cost.charge(i, s, res)
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
		Class:      g.Class(),
		Work:       g.Work(),
		Span:       g.Span(),
		Touches:    g.NumTouches(),
		P:          opts.P,
		CacheLines: opts.CacheLines,
		Policy:     opts.Policy,
		Steal:      opts.Steal,
	}
	rep.Verdict = Budget(rep.Class, opts.Policy, opts.P, rep.Span, opts.CacheLines)
	control := Seeded(opts.Seed)
	if opts.Control != nil {
		control = func(int, *sim.RandomControl) sim.Control { return opts.Control }
	}
	if opts.CacheModel != nil {
		cost, err := NewCacheCost(g, *opts.CacheModel, opts.Policy, opts.P, opts.Trials)
		if err != nil {
			return nil, fmt.Errorf("core: cache cost: %w", err)
		}
		rep.CacheCost = cost
	}
	tr, err := RunTrials(g, sim.Config{
		P:          opts.P,
		Policy:     opts.Policy,
		Steal:      opts.Steal,
		CacheLines: opts.CacheLines,
		CacheKind:  opts.CacheKind,
	}, opts.Trials, control, rep.CacheCost)
	if err != nil {
		return nil, err
	}
	rep.SeqMisses, rep.Deviations, rep.AdditionalMisses, rep.Steals, rep.Premature =
		tr.SeqMisses, tr.Deviations, tr.AdditionalMisses, tr.Steals, tr.Premature
	rep.MaxDeviations, rep.MaxExtraMisses = slices.Max(rep.Deviations), slices.Max(rep.AdditionalMisses)
	return rep, nil
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
			fmt.Fprintf(&sb, "  bound C·(1+P·T∞²)=%d", r.MissBound)
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
