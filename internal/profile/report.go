package profile

import (
	"fmt"
	"strings"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
	"futurelocality/internal/stats"
)

// Options configures Analyze.
type Options struct {
	// P is the processor count for the envelope and the sim replay
	// (default: the traced runtime's worker count).
	P int
	// CacheLines is ignored. A reconstructed DAG declares no blocks, so a
	// sim replay's miss count could only ever be zero; CacheModel is the
	// account that works. The field remains because the frozen benchmark
	// sets it.
	CacheLines int
	// Trials is the number of random-steal sim replays (default 8).
	Trials int
	// Seed seeds the sim replays (default 1).
	Seed int64
	// Domains assigns each sim processor to a cache-locality (LLC) domain
	// (len must be P when non-nil; see sim.Config.Domains). It drives the
	// Hierarchical steal policy's victim preference and the intra- vs
	// cross-domain steal attribution in the replays. Nil means one flat
	// domain.
	Domains []int
	// NoMatrix skips the (fork × steal) replay matrix (3 extra sim sweeps
	// of Trials runs each); the primary replay and envelope check still
	// run.
	NoMatrix bool
	// CacheModel, when non-nil, runs the cache-cost pipeline on the
	// reconstructed DAG: a footprint is derived from the DAG's structure
	// (reconstructed traces carry no block identities) and every replayed
	// schedule — the primary prediction, each (fork × steal) matrix cell,
	// and each job's own replay — is charged its simulated cache misses
	// against the sequential baseline. See core.CacheModel.
	CacheModel *core.CacheModel
}

// JobReport is one submitted job's own verdict: the job's sub-trace
// reconstructed in isolation, classified, and its measured deviations
// checked against the job's own P·T∞² envelope. This is the per-computation
// reading of the paper's bound that a pooled multi-tenant report blurs —
// each concurrent DAG gets the envelope its own structure and span grant,
// not a share of a global one.
type JobReport struct {
	// Job is the runtime-assigned job ID (Event.Job).
	Job uint64
	// Recon is the reconstruction of the job's sub-trace alone.
	Recon *Recon
	// Class classifies the job's own DAG; Work, Span, Touches are its T1,
	// T∞ and t.
	Class      dag.Class
	Work, Span int64
	Touches    int
	// MeasuredDeviations counts the job's own steals + helped + blocked.
	MeasuredDeviations int64
	// DeviationBound is P·T∞² of the job's own span when its classification
	// grants a future-first envelope, else 0.
	DeviationBound int64
	// CacheCost is the job's own footprint-replay verdict (sim trials over
	// the job's isolated DAG), present only when Options.CacheModel was set.
	CacheCost *core.CacheCost
}

// WithinBound reports whether the job's measured deviations stayed inside
// its own envelope (vacuously true when its class grants none).
func (jr *JobReport) WithinBound() bool {
	return jr.DeviationBound == 0 || jr.MeasuredDeviations <= jr.DeviationBound
}

// MatrixCell is one cell of the (fork × steal) replay matrix: the
// reconstructed DAG re-executed under one fork discipline and one steal
// policy, so the deviation cost of every policy pair can be compared on
// the same computation. Bound is the P·T∞² envelope when the theorems
// grant one for this cell — only future-first × random-single on a covered
// class — else 0.
type MatrixCell struct {
	Fork  sim.ForkPolicy
	Steal sim.StealPolicy
	// MeanDeviations and MaxDeviations summarize the per-trial deviation
	// counts against the cell's own fork-policy sequential baseline;
	// MeanSteals summarizes stolen nodes.
	MeanDeviations float64
	MaxDeviations  int64
	MeanSteals     float64
	Bound          int64
	// MeanExtraMisses and MaxExtraMisses summarize the cell's simulated
	// additional cache misses over the same trials (footprint replay vs the
	// cell's own fork-policy sequential baseline); MissBound is the
	// C·(1+P·T∞²) miss envelope where the deviation envelope is granted.
	// SeqMisses is that baseline's own bill, prepared once per fork policy:
	// the two cells of a row carry one. All zero unless Options.CacheModel
	// was set.
	MeanExtraMisses float64
	MaxExtraMisses  int64
	MissBound       int64
	SeqMisses       int64
}

// Report is the profiler's outcome: the reconstructed DAG's classification,
// the measured deviation account of the real run, the theorem envelope the
// classification grants, and the simulator's prediction for the same DAG —
// predicted vs. measured in one place.
type Report struct {
	// Recon is the reconstruction the report is computed from.
	Recon *Recon
	// Class is dag.Classify of the reconstructed DAG.
	Class dag.Class
	// Work, Span, Touches are T1, T∞ and t of the reconstructed DAG.
	Work, Span int64
	Touches    int
	// P is the processor count used for the envelope and sim replay.
	P int
	// MeasuredDeviations = steals + helped tasks + blocked touches of the
	// real run.
	MeasuredDeviations int64
	// DeviationBound is the Theorem 8/12/16/18 envelope P·T∞² when the
	// classification grants one under the future-first policy, else 0.
	DeviationBound int64
	// Sim is the simulator replay of the reconstructed DAG (predicted
	// deviations, steals and misses under the Section 3 model: future-first
	// × random-single, the cell the envelope belongs to).
	Sim *core.Report
	// Matrix is the (fork × steal) replay of the same DAG — one cell per
	// policy pair, rows future-first/parent-first, columns the two steal
	// policies — attributing predicted deviation cost to policy choice.
	// Empty when Options.NoMatrix was set.
	Matrix []MatrixCell
	// Jobs holds one verdict per submitted job observed in the trace (split
	// by Event.Job, each reconstructed and classified in isolation), sorted
	// by job ID. Empty for single-tenant sessions.
	Jobs []JobReport
}

// Analyze reconstructs tr and produces the full predicted-vs-measured
// report.
func Analyze(tr *Trace, opts Options) (*Report, error) {
	recon, err := Reconstruct(tr)
	if err != nil {
		return nil, err
	}
	if opts.P == 0 {
		opts.P = tr.Workers()
		if opts.P == 0 {
			opts.P = 1
		}
	}
	if opts.Trials == 0 {
		opts.Trials = 8
	}
	if opts.Seed == 0 {
		// Match core.Analyze's default up front, so the matrix's
		// future-first × random-single cell names the exact trials of the
		// primary prediction line (same seeds, same numbers) and is filled
		// from it.
		opts.Seed = 1
	}
	r := &Report{
		Recon:              recon,
		Work:               recon.Graph.Work(),
		Span:               recon.Graph.Span(),
		Touches:            recon.Graph.NumTouches(),
		P:                  opts.P,
		MeasuredDeviations: recon.MeasuredDeviations(),
	}
	pooled := func() error {
		// The primary replay is future-first × random-single (core's
		// defaults), the cell the envelope is granted for, so its bound is the
		// report's.
		simRep, err := core.Analyze(recon.Graph, core.AnalyzeOptions{
			P:          opts.P,
			Domains:    opts.Domains,
			Trials:     opts.Trials,
			Seed:       opts.Seed,
			CacheModel: opts.CacheModel,
		})
		if err != nil {
			return fmt.Errorf("profile: sim replay: %w", err)
		}
		r.Class, r.Sim, r.DeviationBound = simRep.Class, simRep, simRep.DeviationBound
		if !opts.NoMatrix {
			r.Matrix, err = replayMatrix(recon, simRep, opts)
			if err != nil {
				return fmt.Errorf("profile: (fork × steal) matrix: %w", err)
			}
		}
		return nil
	}
	perJob := func() (err error) {
		if len(recon.Jobs) > 0 {
			r.Jobs, err = jobReports(tr, recon.Jobs, opts)
			if err != nil {
				return fmt.Errorf("profile: per-job split: %w", err)
			}
		}
		return nil
	}
	// The matrix reads the primary's class, footprint and own cell, so it
	// follows it; the per-job verdicts read nothing of either, so they run
	// beside them. Each side writes its own fields of r, and an error of the
	// pooled side goes before one of the jobs'.
	sides := []func() error{pooled, perJob}
	if err := core.ForEach(len(sides), func(i int) error { return sides[i]() }); err != nil {
		return nil, err
	}
	return r, nil
}

// jobReports splits tr by job and produces one isolated verdict per job —
// reconstruction, classification, and the job's own measured-vs-envelope
// check — for the already-sorted job IDs the pooled reconstruction
// observed, the jobs side by side (core.ForEach). No sim replay per job
// unless a cache model asks for the job's own miss bill: the pooled report's
// prediction already covers the whole trace; what the split adds is
// attribution.
func jobReports(tr *Trace, ids []uint64, opts Options) ([]JobReport, error) {
	subs := SplitJobs(tr)
	out := make([]JobReport, len(ids))
	err := core.ForEach(len(ids), func(i int) error {
		id := ids[i]
		sub := subs[id]
		if sub == nil {
			return fmt.Errorf("job %d: observed, but no event carries it", id)
		}
		rec, err := Reconstruct(sub)
		if err != nil {
			return fmt.Errorf("job %d: %w", id, err)
		}
		jr := JobReport{
			Job:                id,
			Recon:              rec,
			Work:               rec.Graph.Work(),
			Span:               rec.Graph.Span(),
			Touches:            rec.Graph.NumTouches(),
			MeasuredDeviations: rec.MeasuredDeviations(),
		}
		if opts.CacheModel != nil {
			// The job's own cache bill: sim trials over its isolated DAG,
			// each replayed through the footprint. The OPT baseline is
			// skipped per job — the pooled report already carries it. The
			// analysis classifies the DAG on its way.
			model := *opts.CacheModel
			model.NoIdeal = true
			jobSim, err := core.Analyze(rec.Graph, core.AnalyzeOptions{
				P:          opts.P,
				Domains:    opts.Domains,
				Trials:     opts.Trials,
				Seed:       opts.Seed,
				CacheModel: &model,
			})
			if err != nil {
				return fmt.Errorf("job %d cache cost: %w", id, err)
			}
			jr.Class, jr.CacheCost = jobSim.Class, jobSim.CacheCost
		} else {
			jr.Class = dag.Classify(rec.Graph)
		}
		if core.BoundApplies(jr.Class, sim.FutureFirst, sim.RandomSingle) {
			jr.DeviationBound = int64(opts.P) * jr.Span * jr.Span
		}
		out[i] = jr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayMatrix re-executes the reconstructed DAG under every (fork × steal)
// pair, Trials random schedules each, and returns one summary cell per
// pair, the cells side by side (core.ForEach). Deviations in each cell are
// counted against the sequential execution of that cell's own fork policy
// (the paper always compares like with like), and so are its extra misses:
// the sequential execution and its miss bill are prepared once per row and
// shared by the row's two cells. The envelope is attached only to the
// future-first × random-single cell, the one the theorems cover. That cell is
// the primary replay's, seed for seed, so it is not run again but read off
// primary: of the four cells, three are replayed.
func replayMatrix(recon *Recon, primary *core.Report, opts Options) ([]MatrixCell, error) {
	g := recon.Graph
	// Cell (fork, steal) seeds trial i with Seed + i + 1000·steal; the primary
	// seeds it with Seed + i, which is random-single's offset of zero.
	cellSeed := func(steal sim.StealPolicy, i int) int64 { return opts.Seed + int64(i) + 1000*int64(steal) }
	// A row is one fork policy: its sequential execution and, with a cache
	// model, that execution's miss bill.
	type matrixRow struct {
		fork sim.ForkPolicy
		seq  *sim.Result
		base *core.CacheBaseline
	}
	rows := []matrixRow{{fork: sim.FutureFirst}, {fork: sim.ParentFirst}}
	for f := range rows {
		row := &rows[f]
		var err error
		if row.seq, err = sim.Sequential(g, row.fork, 0, cache.LRU); err != nil {
			return nil, err
		}
		if pc := primary.CacheCost; pc != nil && row.fork == sim.FutureFirst {
			// The primary's own baseline is this row's.
			row.base = pc.CacheBaseline
		} else if pc != nil {
			// The other fork policy has its own sequential order, and so its
			// own bill, over the footprint the primary derived. The OPT
			// baseline is skipped — the primary carries it once.
			model := *opts.CacheModel
			model.NoIdeal = true
			if row.base, err = core.NewCacheBaseline(g, model, pc.CacheBaseline, row.seq); err != nil {
				return nil, err
			}
		}
	}
	steals := sim.StealPolicies
	cells := make([]MatrixCell, len(rows)*len(steals))
	err := core.ForEach(len(cells), func(i int) error {
		row, steal := &rows[i/len(steals)], steals[i%len(steals)]
		fork, cell := row.fork, &cells[i]
		cell.Fork, cell.Steal = fork, steal
		granted := core.BoundApplies(primary.Class, fork, steal)
		if granted {
			cell.Bound = int64(opts.P) * g.Span() * g.Span()
		}
		if fork == sim.FutureFirst && steal == sim.RandomSingle {
			cell.summarize(primary.Deviations, primary.Steals)
			if primary.CacheCost != nil {
				cell.charge(primary.CacheCost)
			}
			return nil
		}
		var cost *core.CacheCost
		if row.base != nil {
			cost = row.base.Cost(opts.P, opts.Trials, granted)
		}
		tr, err := core.RunTrials(g, sim.Config{P: opts.P, Policy: fork, Steal: steal, Domains: opts.Domains},
			row.seq, opts.Trials, func(i int) sim.Control { return sim.NewRandomControl(cellSeed(steal, i)) }, cost)
		if err != nil {
			return err
		}
		cell.summarize(tr.Deviations, tr.Steals)
		if cost != nil {
			cell.charge(cost)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// summarize fills the cell's deviation and steal columns from per-trial
// counts.
func (c *MatrixCell) summarize(devs, steals []int64) {
	var devSum, stealSum int64
	for i, d := range devs {
		devSum += d
		stealSum += steals[i]
		c.MaxDeviations = max(c.MaxDeviations, d)
	}
	c.MeanDeviations = float64(devSum) / float64(len(devs))
	c.MeanSteals = float64(stealSum) / float64(len(devs))
}

// charge fills the cell's extra-miss columns from a cache-cost verdict.
func (c *MatrixCell) charge(cc *core.CacheCost) {
	c.MeanExtraMisses, c.MaxExtraMisses, c.MissBound = cc.MeanExtra(), cc.MaxExtra(), cc.MissEnvelope
	c.SeqMisses = cc.SeqMisses
}

// WithinBound reports whether the measured deviations stayed inside the
// envelope (vacuously true when the classification grants none).
func (r *Report) WithinBound() bool {
	return r.DeviationBound == 0 || r.MeasuredDeviations <= r.DeviationBound
}

// String renders the report: reconstruction summary, classification,
// measured account, envelope, and the sim prediction.
func (r *Report) String() string {
	var sb strings.Builder
	c := r.Recon
	fmt.Fprintf(&sb, "reconstructed DAG:  %d tasks → T1=%d nodes, T∞=%d, t=%d touches",
		c.Tasks, r.Work, r.Span, r.Touches)
	if c.SuperFinal {
		sb.WriteString(" (super final node)")
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "class:              %s\n", r.Class)
	fmt.Fprintf(&sb, "spawn disciplines:  future-first=%d parent-first=%d\n",
		c.FutureFirstSpawns, c.ParentFirstSpawns)
	fmt.Fprintf(&sb, "measured:           deviations=%d (steals=%d helped=%d blocked=%d)  touches: inline=%d ready=%d helped=%d blocked=%d external=%d\n",
		r.MeasuredDeviations, c.Steals, c.HelpedTasks, c.BlockedWaits,
		c.InlineTouches, c.ReadyTouches, c.HelpedWaits, c.BlockedWaits, c.ExternalWaits)
	if c.Steals > 0 {
		sb.WriteString("steal attribution: ")
		for _, sp := range sim.StealPolicies {
			if n := c.StealsByPolicy[sp]; n > 0 {
				fmt.Fprintf(&sb, " %s=%d", sp, n)
			}
		}
		sb.WriteByte('\n')
		fmt.Fprintf(&sb, "steal locality:     intra-domain=%d cross-domain=%d\n",
			c.IntraDomainSteals, c.CrossDomainSteals)
	}
	if r.DeviationBound > 0 {
		fmt.Fprintf(&sb, "envelope:           P·T∞² = %d·%d² = %d  → measured within bound: %v\n",
			r.P, r.Span, r.DeviationBound, r.WithinBound())
	} else {
		fmt.Fprintf(&sb, "envelope:           none (class %q grants no future-first bound)\n", r.Class)
	}
	d := stats.Summarize(stats.Ints(r.Sim.Deviations))
	s := stats.Summarize(stats.Ints(r.Sim.Steals))
	fmt.Fprintf(&sb, "sim prediction:     deviations mean=%.1f max=%.0f, steals mean=%.1f (P=%d, %d trials, %s × %s)\n",
		d.Mean, d.Max, s.Mean, r.Sim.P, len(r.Sim.Deviations), r.Sim.Policy, r.Sim.Steal)
	// matrix renders one (fork × steal) table: a row per fork discipline, a
	// column per steal policy, each cell "mean/max" and starred where its
	// envelope is granted.
	matrix := func(what, envelope string, cell func(*MatrixCell) (mean float64, mx, bound int64)) {
		if len(r.Matrix) == 0 {
			return
		}
		fmt.Fprintf(&sb, "sim (fork × steal) %s matrix (mean/max per cell; * = %s envelope granted):\n", what, envelope)
		fmt.Fprintf(&sb, "  %-14s", "")
		for _, sp := range sim.StealPolicies {
			fmt.Fprintf(&sb, " %15s", sp.String())
		}
		sb.WriteByte('\n')
		for _, fork := range []sim.ForkPolicy{sim.FutureFirst, sim.ParentFirst} {
			fmt.Fprintf(&sb, "  %-14s", fork.String())
			for i := range r.Matrix {
				if r.Matrix[i].Fork != fork {
					continue
				}
				mean, mx, bound := cell(&r.Matrix[i])
				v := fmt.Sprintf("%.1f/%d", mean, mx)
				if bound > 0 {
					v += "*"
				}
				fmt.Fprintf(&sb, " %15s", v)
			}
			sb.WriteByte('\n')
		}
	}
	matrix("deviation", "P·T∞²", func(c *MatrixCell) (float64, int64, int64) {
		return c.MeanDeviations, c.MaxDeviations, c.Bound
	})
	if cc := r.Sim.CacheCost; cc != nil {
		cc.Render(&sb, fmt.Sprintf("%s × %s", r.Sim.Policy, r.Sim.Steal))
		matrix("extra-miss", "C·(1+P·T∞²)", func(c *MatrixCell) (float64, int64, int64) {
			return c.MeanExtraMisses, c.MaxExtraMisses, c.MissBound
		})
	}
	if len(r.Jobs) > 0 {
		fmt.Fprintf(&sb, "per-job verdicts (%d jobs, each vs its own envelope):\n", len(r.Jobs))
		for i := range r.Jobs {
			jr := &r.Jobs[i]
			fmt.Fprintf(&sb, "  job %-4d class=%s T1=%d T∞=%d deviations=%d (steals=%d helped=%d blocked=%d)",
				jr.Job, jr.Class, jr.Work, jr.Span, jr.MeasuredDeviations,
				jr.Recon.Steals, jr.Recon.HelpedTasks, jr.Recon.BlockedWaits)
			if jr.CacheCost != nil {
				fmt.Fprintf(&sb, "  extra misses mean=%.1f max=%d",
					jr.CacheCost.MeanExtra(), jr.CacheCost.MaxExtra())
			}
			if jr.DeviationBound > 0 {
				fmt.Fprintf(&sb, "  envelope P·T∞²=%d within=%v\n", jr.DeviationBound, jr.WithinBound())
			} else {
				fmt.Fprintf(&sb, "  envelope none (class %q)\n", jr.Class)
			}
		}
	}
	if len(c.Incomplete) > 0 {
		fmt.Fprintf(&sb, "trace gaps:         %d (%s, ...)\n", len(c.Incomplete), c.Incomplete[0])
	}
	return sb.String()
}
