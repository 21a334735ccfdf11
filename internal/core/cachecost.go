package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"

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
	// LLCLines, when > 0, adds one last-level cache of this many lines
	// shared by all P processors, as one LLC is shared by the workers of one
	// runtime.
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

// cacheBaseline is the part of a cache-cost verdict no schedule enters: what
// a cache model makes of a graph and of its sequential execution under one
// fork policy. It depends on nothing else, so it is computed once per graph,
// fork policy and model (baselineKey) and kept in the graph's memo
// (dag.Memo); every analysis of that graph under that policy and model
// shares it, and none mutates it.
type cacheBaseline struct {
	// Synthetic reports a derived footprint (reconstructed trace) vs the
	// graph's own declared blocks; Blocks is the distinct block count.
	Synthetic bool
	Blocks    int
	// SeqMisses is the sequential (1-worker) execution's private-cache miss
	// count under the model's caches.
	SeqMisses int64

	g     *dag.Graph
	fp    *cache.Footprint // what is replayed
	seq   *sequential      // the sequential execution SeqMisses bills
	lines int              // C, for the OPT bill
	// seqMiss[v] is the misses node v took in the sequential replay, the
	// charge of a converged run (cache.Set.ReplayConverged); nil where the
	// model and footprint do not converge. 4 bytes a node.
	seqMiss []int32
	// ideal is Belady OPT over the sequential trace, computed when first
	// asked for (idealMisses): a model that declines it never pays for it.
	ideal struct {
		sync.Once
		misses int64
	}
	err error
}

// baselineKey keys a cacheBaseline in its graph's memo: the fork policy and
// every field of the model that the bills depend on. The window is 0 for a
// graph that declares its blocks, whose footprint ignores it, and NoIdeal is
// left out: OPT is computed on demand.
type baselineKey struct {
	policy             sim.ForkPolicy
	kind               cache.Kind
	lines, window, llc int
}

// baselineOf returns g's baseline under model for the sequential execution
// under policy, computed once per graph and key.
func baselineOf(g *dag.Graph, model CacheModel, policy sim.ForkPolicy) (*cacheBaseline, error) {
	if model.Lines < 1 {
		return nil, fmt.Errorf("core: cache model with C = %d", model.Lines)
	}
	k := baselineKey{policy: policy, kind: model.Kind, lines: model.Lines, window: model.window(), llc: model.LLCLines}
	if len(g.RawBlocks) > 0 {
		k.window = 0
	}
	b := dag.Memo(g, k, newCacheBaseline)
	return b, b.err
}

// newCacheBaseline derives g's footprint under k and replays the sequential
// execution under k's policy through it: recording the misses of every node
// where the model converges on the footprint, counting them where the
// footprint fits in a cache, the full way otherwise. The replay has no
// shared tier: it bills the private caches alone, which a shared tier
// behind them does not change.
func newCacheBaseline(g *dag.Graph, k baselineKey) *cacheBaseline {
	seq, err := sequentialOf(g, k.policy)
	if err != nil {
		return &cacheBaseline{err: err}
	}
	fp := cache.FootprintOf(g, max(k.window, 1))
	b := &cacheBaseline{
		Synthetic: fp.Synthetic,
		Blocks:    fp.Blocks,
		g:         g,
		fp:        fp,
		seq:       seq,
		lines:     k.lines,
	}
	s := getScratch()
	defer putScratch(s)
	cfg := cache.SetConfig{P: 1, Kind: k.kind, Lines: k.lines}
	set, err := setFor(&s.seq, cfg)
	if err != nil {
		return &cacheBaseline{err: err}
	}
	s.order = seq.order(g, s.order)
	switch {
	case cache.SetConfig{Kind: k.kind, Lines: k.lines, LLCLines: k.llc}.Converges(fp):
		b.seqMiss = make([]int32, g.Len())
		b.SeqMisses = set.ReplayRecording(fp, s.order, b.seqMiss).TotalMisses
	case cfg.Fits(fp):
		b.SeqMisses = set.ReplayFit(fp, s.order, nil).TotalMisses
	default:
		b.SeqMisses = set.Replay(fp, s.order, nil).TotalMisses
	}
	return b
}

// idealMisses is Belady OPT over b's sequential trace, computed on the first
// call.
func (b *cacheBaseline) idealMisses() int64 {
	b.ideal.Do(func() {
		s := getScratch()
		defer putScratch(s)
		s.order = b.seq.order(b.g, s.order)
		b.ideal.misses = cache.OptimalMisses(b.fp.Flatten(s.order), b.lines)
	})
	return b.ideal.misses
}

// ReplayCheckEnv names the environment variable that, when non-empty where a
// cache-cost verdict is opened (NewCacheCost), makes the sequential bill and
// every schedule charged to that verdict replay the full way as well, and
// fail the analysis where the two bills differ per worker or in total: a
// self-check of the converged and counting replays and of bills taken from
// the engine, which the test suites of the analysis packages run under. It
// is read for each verdict, not kept with the graph's baseline.
const ReplayCheckEnv = "FUTURELOCALITY_REPLAY_CHECK"

// replayCheck reports whether ReplayCheckEnv is set. It asks syscall, which
// os.Getenv wraps in a test-log hook: the wrapper would put two more
// functions ahead of the runtime in the linked binary and move the runtime's
// hot code off its cache-line offsets (scripts/layout_diff.sh).
func replayCheck() bool {
	v, _ := syscall.Getenv(ReplayCheckEnv)
	return v != ""
}

// CacheCost is the cache-cost verdict of one computation: the sequential
// baseline's simulated miss bill, the per-trial parallel bills of the same
// footprint under the analyzed schedules, and the miss envelope the theorem
// grants — C·(1 + P·T∞²), the O(C + P·T∞²·C) bound of Theorem 8's cache
// corollary (one cold cache to begin with, plus at most C misses per
// deviation).
type CacheCost struct {
	*cacheBaseline
	// Model echoes the cache model.
	Model CacheModel
	// IdealMisses is Belady OPT over the sequential trace (0 when
	// Model.NoIdeal).
	IdealMisses int64
	// P is the worker count of the replays.
	P int
	// TotalMisses and ExtraMisses hold one entry per replayed schedule:
	// the schedule's private-cache miss total and its difference from
	// SeqMisses (negative is possible — P private caches hold P·C lines).
	TotalMisses, ExtraMisses []int64
	// LLCMisses is the shared-tier (memory-fetch) miss count per schedule,
	// present only when Model.LLCLines > 0.
	LLCMisses []int64
	// MissEnvelope is Budget's MissBound for the replayed fork policy:
	// C·(1 + P·T∞²) where the deviation envelope is granted, else 0.
	MissEnvelope int64

	// policy is the fork policy of the sequential execution the bills are
	// measured against, whose order the baseline's seqMiss follows.
	policy sim.ForkPolicy
	// check replays every schedule the full way too and fails on any
	// difference (ReplayCheckEnv).
	check bool
}

// NewCacheCost opens a cache-cost verdict on g for n schedules at p workers
// under model, measured against the sequential execution under policy, every
// bill still zero: RunTrials fills entry i from trial i. Its baseline is the
// graph's, computed once per policy and model; its miss envelope is the one
// Budget grants g's class under policy.
func NewCacheCost(g *dag.Graph, model CacheModel, policy sim.ForkPolicy, p, n int) (*CacheCost, error) {
	b, err := baselineOf(g, model, policy)
	if err != nil {
		return nil, err
	}
	bills := make([]int64, 2*n)
	cc := &CacheCost{
		cacheBaseline: b,
		Model:         model,
		P:             p,
		TotalMisses:   bills[:n:n],
		ExtraMisses:   bills[n:],
		MissEnvelope:  Budget(g.Class(), policy, p, g.Span(), model.Lines).MissBound,
		policy:        policy,
		check:         replayCheck(),
	}
	if !model.NoIdeal {
		cc.IdealMisses = b.idealMisses()
	}
	if model.LLCLines > 0 {
		cc.LLCMisses = make([]int64, n)
	}
	return cc, nil
}

// engineBilled reports whether r's own miss count is the bill cc's model
// would make of r's schedule: declared blocks, the model's caches, no shared
// tier. Then the engine's replay is the only one.
func (cc *CacheCost) engineBilled(r *sim.Result) bool {
	return !cc.Synthetic && cc.Model.LLCLines == 0 && r.CacheLines == cc.Model.Lines && r.CacheKind == cc.Model.Kind
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

// WithinEnvelope is Verdict.WithinBound of the worst replayed schedule's
// additional misses against the miss envelope. It remains because the frozen
// benchmark calls it.
func (cc *CacheCost) WithinEnvelope() bool {
	return Verdict{MaxExtraMisses: cc.MaxExtra(), MissBound: cc.MissEnvelope}.WithinBound()
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
// the fork and steal policy of the replayed schedules and selects the
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

// checkBaseline is the replay check of the sequential bill: the
// baseline's order replayed the full way must cost SeqMisses.
func (cc *CacheCost) checkBaseline() error {
	s := getScratch()
	defer putScratch(s)
	set, err := setFor(&s.check, cache.SetConfig{P: 1, Kind: cc.Model.Kind, Lines: cc.Model.Lines})
	if err != nil {
		return fmt.Errorf("core: cache cost: %w", err)
	}
	s.order = cc.seq.order(cc.g, s.order)
	if full := set.Replay(cc.fp, s.order, nil).TotalMisses; full != cc.SeqMisses {
		return fmt.Errorf("core: replay check: the sequential bill is %d misses, the full replay's %d", cc.SeqMisses, full)
	}
	return nil
}

// charge enters trial i's bill: the engine's own where it is the model's
// (engineBilled), else a replay on s — the scratch of the goroutine that has
// just simulated the trial — converged where the baseline recorded the
// sequential misses per node, counted where the footprint fits in a cache,
// full otherwise.
func (cc *CacheCost) charge(i int, s *trialScratch, res *sim.Result) error {
	cfg := cache.SetConfig{P: cc.P, Kind: cc.Model.Kind, Lines: cc.Model.Lines, LLCLines: cc.Model.LLCLines}
	var out cache.ReplayOutcome
	if cc.engineBilled(res) {
		out = cache.ReplayOutcome{Misses: res.Misses, TotalMisses: res.TotalMisses}
	} else {
		set, err := setFor(&s.set, cfg)
		if err != nil {
			return fmt.Errorf("core: cache cost: %w", err)
		}
		switch {
		case cc.seqMiss != nil:
			out = set.ReplayConverged(cc.fp, res.Order, res.Who, cc.seq.pred.Preds(), cc.seqMiss)
		case cfg.Fits(cc.fp):
			out = set.ReplayFit(cc.fp, res.Order, res.Who)
		default:
			out = set.Replay(cc.fp, res.Order, res.Who)
		}
	}
	if cc.check {
		full, err := setFor(&s.check, cfg)
		if err != nil {
			return fmt.Errorf("core: cache cost: %w", err)
		}
		if want := full.Replay(cc.fp, res.Order, res.Who); !slices.Equal(out.Misses, want.Misses) ||
			out.TotalMisses != want.TotalMisses || out.LLCMisses != want.LLCMisses {
			return fmt.Errorf("core: replay check: trial %d billed %v (total %d), the full replay %v (total %d)",
				i, out.Misses, out.TotalMisses, want.Misses, want.TotalMisses)
		}
	}
	cc.TotalMisses[i] = out.TotalMisses
	cc.ExtraMisses[i] = out.TotalMisses - cc.SeqMisses
	if cc.LLCMisses != nil {
		cc.LLCMisses[i] = out.LLCMisses
	}
	return nil
}
