package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
)

// CacheModel parameterizes the cache-cost pipeline: the footprint-driven
// replay that charges a schedule its simulated cache misses. It is the
// "measure the theorem's actual payoff" knob — deviations are the proxy the
// profiler counts; this model converts a schedule into the quantity the
// paper bounds, additional cache misses.
type CacheModel struct {
	// Lines is C, each worker's private cache capacity in lines (≥ 1).
	Lines int
	// Kind is the private caches' replacement policy (default LRU — the
	// policy the paper analyzes; the bounds hold for all simple policies).
	Kind cache.Kind
	// Window is the synthetic footprint's per-thread working-set window W
	// (see cache.DeriveFootprint). 0 defaults to Lines-1, so one thread's
	// live set (frame + window) exactly fills a private cache and each
	// deviation's cold restart costs up to C misses — the charge the
	// O(C + P·T∞²·C) envelope is built from. Ignored for graphs that
	// declare their own blocks.
	Window int
	// LLCLines, when > 0, adds one shared last-level cache of this many
	// lines per locality domain (aligned with the Domains assignment the
	// analysis was given).
	LLCLines int
	// NoIdeal skips the Belady-OPT ideal-cache baseline over the sequential
	// trace (it costs O(accesses·log C); everything else is linear).
	NoIdeal bool
}

// window resolves the effective synthetic window.
func (m CacheModel) window() int {
	if m.Window > 0 {
		return m.Window
	}
	if m.Lines > 1 {
		return m.Lines - 1
	}
	return 1
}

// String renders the model compactly, e.g. "C=64 lru w=63" or
// "C=64 fifo w=16 llc=512".
func (m CacheModel) String() string {
	s := fmt.Sprintf("C=%d %s w=%d", m.Lines, m.Kind, m.window())
	if m.LLCLines > 0 {
		s += fmt.Sprintf(" llc=%d", m.LLCLines)
	}
	return s
}

// maxModelLines bounds each line count of a parsed model: 2²⁰ lines is a
// 64 MiB cache, past any last-level cache this model is asked about.
const maxModelLines = 1 << 20

// ParseCacheModel parses the CLI spec "C[,policy][,opt...]": a line count,
// an optional replacement policy name (lru, fifo, set-assoc-lru,
// direct-mapped; default lru), and optional w=N (synthetic window),
// llc=N (shared tier lines), and noideal tokens, in any order after C.
//
//	"64"  "64,lru"  "64,fifo,w=16"  "128,lru,llc=1024,noideal"
//
// Every count is at most maxModelLines: the caches are allocated at their
// stated size, and the spec arrives from a command line.
func ParseCacheModel(spec string) (*CacheModel, error) {
	parts := strings.Split(spec, ",")
	c, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil || c < 1 || c > maxModelLines {
		return nil, fmt.Errorf("core: cache model %q: want C[,policy][,w=N][,llc=N][,noideal] with 1 ≤ C ≤ %d", spec, maxModelLines)
	}
	m := &CacheModel{Lines: c, Kind: cache.LRU}
	for _, raw := range parts[1:] {
		tok := strings.TrimSpace(raw)
		switch {
		case tok == "noideal":
			m.NoIdeal = true
		case strings.HasPrefix(tok, "w="):
			if m.Window, err = strconv.Atoi(tok[2:]); err != nil || m.Window < 1 || m.Window > maxModelLines {
				return nil, fmt.Errorf("core: cache model %q: bad window %q", spec, tok)
			}
		case strings.HasPrefix(tok, "llc="):
			if m.LLCLines, err = strconv.Atoi(tok[4:]); err != nil || m.LLCLines < 1 || m.LLCLines > maxModelLines {
				return nil, fmt.Errorf("core: cache model %q: bad llc %q", spec, tok)
			}
		default:
			if m.Kind, err = cache.ParseKind(tok); err != nil {
				return nil, fmt.Errorf("core: cache model %q: %w", spec, err)
			}
		}
	}
	return m, nil
}

// CacheBaseline is the part of a cache-cost verdict no schedule enters: what
// the model makes of the graph and of its sequential execution under one
// fork policy. Every set of schedules measured against that execution — the
// four steal-policy cells of a fork's matrix row — shares one.
type CacheBaseline struct {
	// Model echoes the cache model.
	Model CacheModel
	// Synthetic reports a derived footprint (reconstructed trace) vs the
	// graph's own declared blocks; Blocks is the distinct block count.
	Synthetic bool
	Blocks    int
	// SeqMisses is the sequential (1-worker) baseline's miss count under
	// Model.Kind; IdealMisses is Belady OPT over the same sequential trace
	// (0 when Model.NoIdeal).
	SeqMisses, IdealMisses int64

	fp   *cache.Footprint // what is replayed; see NewCacheBaseline's prev
	span int64            // the graph's T∞, for the envelope
}

// CacheCost is the cache-cost verdict of one computation: the sequential
// baseline's simulated miss bill, the per-trial parallel bills of the same
// footprint under the analyzed schedules, and the miss envelope the theorem
// grants — C·(1 + P·T∞²), the O(C + P·T∞²·C) bound of Theorem 8's cache
// corollary (one cold cache to begin with, plus at most C misses per
// deviation).
type CacheCost struct {
	*CacheBaseline
	// P is the worker count of the replays.
	P int
	// TotalMisses and ExtraMisses hold one entry per replayed schedule:
	// the schedule's private-cache miss total and its difference from
	// SeqMisses (negative is possible — P private caches hold P·C lines).
	TotalMisses, ExtraMisses []int64
	// LLCMisses is the shared-tier (memory-fetch) miss count per schedule,
	// present only when Model.LLCLines > 0.
	LLCMisses []int64
	// MissEnvelope is C·(1 + P·T∞²) when the classification grants the
	// deviation envelope for the replayed policy pair, else 0.
	MissEnvelope int64
}

// MeanExtra and MaxExtra summarize ExtraMisses.
func (cc *CacheCost) MeanExtra() float64 {
	if len(cc.ExtraMisses) == 0 {
		return 0
	}
	var s int64
	for _, e := range cc.ExtraMisses {
		s += e
	}
	return float64(s) / float64(len(cc.ExtraMisses))
}

// MaxExtra returns the worst trial's additional misses.
func (cc *CacheCost) MaxExtra() int64 {
	var mx int64
	for i, e := range cc.ExtraMisses {
		if i == 0 || e > mx {
			mx = e
		}
	}
	return mx
}

// WithinEnvelope reports whether every replayed schedule's additional misses
// stayed inside the miss envelope (vacuously true when none is granted).
func (cc *CacheCost) WithinEnvelope() bool {
	if cc.MissEnvelope == 0 {
		return true
	}
	for _, e := range cc.ExtraMisses {
		if e > cc.MissEnvelope {
			return false
		}
	}
	return true
}

// ccLabels are the words the two reports that print a cache-cost paragraph
// differ in: Analyze's own (index 0) and the profiler's (index 1), which
// names the policy pair and aligns with its wider label column.
var ccLabels = [2]struct{ head, synthetic, seq, envelope string }{
	{"cache cost:  model=[%s] footprint=%s blocks=%d\n", "synthetic",
		"  seq misses=%d", "  envelope C·(1+P·T∞²)=%d  within=%v"},
	{"cache cost model:   [%s]  footprint=%s  blocks=%d\n", "synthetic (DAG-derived)",
		"  sequential misses=%d", "  envelope C·(1+P·T∞²)=%d within=%v"},
}

// Render writes the verdict's paragraph — model and footprint, the
// sequential and ideal bills, the extra misses against the envelope, the
// shared tier when there is one — for both reports that carry it. pair names
// the (fork × steal) pair of the replayed schedules and selects the
// profiler's wording; Analyze's own report passes "".
func (cc *CacheCost) Render(sb *strings.Builder, pair string) {
	l := ccLabels[0]
	if pair != "" {
		l, pair = ccLabels[1], " ("+pair+")"
	}
	src := "declared"
	if cc.Synthetic {
		src = l.synthetic
	}
	fmt.Fprintf(sb, l.head, cc.Model, src, cc.Blocks)
	fmt.Fprintf(sb, l.seq, cc.SeqMisses)
	if !cc.Model.NoIdeal {
		fmt.Fprintf(sb, " (ideal/OPT=%d)", cc.IdealMisses)
	}
	fmt.Fprintf(sb, "  extra misses: mean=%.1f max=%d%s", cc.MeanExtra(), cc.MaxExtra(), pair)
	if cc.MissEnvelope > 0 {
		fmt.Fprintf(sb, l.envelope, cc.MissEnvelope, cc.WithinEnvelope())
	}
	sb.WriteByte('\n')
	if cc.Model.LLCLines > 0 {
		l := stats.Summarize(stats.Ints(cc.LLCMisses))
		fmt.Fprintf(sb, "  llc (memory) misses: mean=%.1f max=%.0f\n", l.Mean, l.Max)
	}
}

// scheduleOf recovers a result's global execution order (When is dense over
// all executed nodes, so order[When[v]] = v) and flattens its processor
// assignment for the replay driver, into buffers reused from trial to trial.
func scheduleOf(r *sim.Result, order []dag.NodeID, who []int32) ([]dag.NodeID, []int32) {
	order = slices.Grow(order[:0], len(r.When))[:len(r.When)]
	who = slices.Grow(who[:0], len(r.Who))[:len(r.Who)]
	for id, w := range r.When {
		order[w] = dag.NodeID(id)
		who[id] = int32(r.Who[id])
	}
	return order, who
}

// NewCacheBaseline derives g's footprint under model and replays seq through
// it: the sequential bill and, unless the model declines it, the OPT bill.
// seq must be the 1-processor execution the schedules will be measured
// against (same fork policy — the paper compares like with like). prev, when
// non-nil, is an earlier baseline of the same graph: its footprint is reused
// if the windows agree, so a caller with several baselines of one graph (the
// profiler's two fork policies) derives it once.
func NewCacheBaseline(g *dag.Graph, model CacheModel, prev *CacheBaseline, seq *sim.Result) (*CacheBaseline, error) {
	if model.Lines < 1 {
		return nil, fmt.Errorf("core: cache model with C = %d", model.Lines)
	}
	var fp *cache.Footprint
	if prev != nil && prev.Model.window() == model.window() {
		fp = prev.fp
	}
	if fp == nil {
		fp = cache.DeriveFootprint(g, model.window())
	}
	seqOrder := seq.SeqOrder()
	s := getScratch()
	defer putScratch(s)
	seqSet, err := setFor(&s.seq, cache.SetConfig{P: 1, Kind: model.Kind, Lines: model.Lines})
	if err != nil {
		return nil, err
	}
	b := &CacheBaseline{
		Model:     model,
		Synthetic: fp.Synthetic,
		Blocks:    fp.Blocks,
		SeqMisses: seqSet.Replay(fp, seqOrder, nil).TotalMisses,
		fp:        fp,
		span:      g.Span(),
	}
	if !model.NoIdeal {
		b.IdealMisses = cache.OptimalMisses(fp.Flatten(seqOrder), model.Lines)
	}
	return b, nil
}

// Cost opens a verdict against b for n schedules at p workers, every bill
// still zero: RunTrials fills entry i from trial i. granted says whether the
// classification grants the envelope for the schedules' policy pair
// (BoundApplies).
func (b *CacheBaseline) Cost(p, n int, granted bool) *CacheCost {
	cc := &CacheCost{
		CacheBaseline: b,
		P:             p,
		TotalMisses:   make([]int64, n),
		ExtraMisses:   make([]int64, n),
	}
	if b.Model.LLCLines > 0 {
		cc.LLCMisses = make([]int64, n)
	}
	if granted {
		cc.MissEnvelope = int64(b.Model.Lines) * (1 + int64(p)*b.span*b.span)
	}
	return cc
}

// charge replays trial i's schedule on s — the scratch of the goroutine that
// has just simulated it — and enters its bill. domains, when non-nil, align
// the optional shared-LLC tier with the simulation's locality domains.
func (cc *CacheCost) charge(i int, s *trialScratch, domains []int, res *sim.Result) error {
	set, err := setFor(&s.set, cache.SetConfig{
		P: cc.P, Kind: cc.Model.Kind, Lines: cc.Model.Lines,
		Domains: domains, LLCLines: cc.Model.LLCLines,
	})
	if err != nil {
		return fmt.Errorf("core: cache cost: %w", err)
	}
	s.order, s.who = scheduleOf(res, s.order, s.who)
	out := set.Replay(cc.fp, s.order, s.who)
	cc.TotalMisses[i] = out.TotalMisses
	cc.ExtraMisses[i] = out.TotalMisses - cc.SeqMisses
	if cc.LLCMisses != nil {
		cc.LLCMisses[i] = out.LLCMisses
	}
	return nil
}
