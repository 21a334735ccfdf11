package profile

import (
	"fmt"
	"strings"

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
	// NoMatrix skips the fork replay matrix (one extra sim sweep of Trials
	// runs); the primary replay and envelope check still run.
	NoMatrix bool
	// CacheModel, when non-nil, runs the cache-cost pipeline on the
	// reconstructed DAG: a footprint is derived from the DAG's structure
	// (reconstructed traces carry no block identities) and every replayed
	// schedule — the primary prediction, each matrix cell, and each job's
	// own replay — is charged its simulated cache misses
	// against the sequential baseline. See core.CacheModel.
	CacheModel *core.CacheModel
}

// Reading is a traced run judged against the paper's envelope: its
// reconstruction, the reconstructed DAG's class, T1, T∞ and t, and the
// verdict on its measured deviations. The pooled report, each job's report
// and the flight gauge are each one reading, all built by read.
type Reading struct {
	// Recon is the reconstruction the reading is computed from.
	Recon *Recon
	// Class is the reconstructed DAG's class (dag.Graph.Class).
	Class dag.Class
	// Work, Span, Touches are T1, T∞ and t of the reconstructed DAG.
	Work, Span int64
	Touches    int
	// Verdict judges the measured deviations (Recon.measuredDeviations:
	// steals + helped tasks + blocked touches) against the P·T∞² envelope
	// where the class grants it under the fork disciplines the trace
	// recorded: future-first at every fork (Recon.ParentFirstForks = 0), or
	// no budget. A traced run has no miss count of its own: its miss budget
	// is 0.
	core.Verdict
}

// read is the reading of rec judged for p processors under the disciplines
// rec's spawns recorded: the theorems cover future-first forks only, so one
// parent-first fork withholds the budget.
func read(rec *Recon, p int) Reading {
	g := rec.Graph
	fork := sim.FutureFirst
	if rec.ParentFirstForks > 0 {
		fork = sim.ParentFirst
	}
	class := g.Class()
	v := core.Budget(class, fork, p, g.Span(), 0)
	v.MaxDeviations = rec.measuredDeviations()
	return Reading{Recon: rec, Class: class, Work: g.Work(), Span: g.Span(), Touches: g.NumTouches(), Verdict: v}
}

// String renders the reading on one line, the flight gauge's CLI form.
func (r Reading) String() string {
	s := fmt.Sprintf("%d tasks, class=%s, T∞=%d, deviations=%d", len(r.Recon.Tasks), r.Class, r.Span, r.MaxDeviations)
	if r.DeviationBound > 0 {
		s += fmt.Sprintf(", envelope P·T∞²=%d, within=%v", r.DeviationBound, r.WithinBound())
	} else {
		s += ", envelope none: " + r.withheld()
	}
	if n := len(r.Recon.Incomplete); n > 0 {
		s += fmt.Sprintf(" [%d trace gaps]", n)
	}
	return s
}

// withheld says why r grants no budget: a parent-first fork, or a class the
// theorems do not cover.
func (r Reading) withheld() string {
	if n := r.Recon.ParentFirstForks; n > 0 {
		return fmt.Sprintf("%d parent-first forks", n)
	}
	return fmt.Sprintf("class %q grants no future-first bound", r.Class)
}

// JobReport is one submitted job's own verdict: the job's sub-trace
// reconstructed in isolation, classified, and its measured deviations
// checked against the job's own P·T∞² envelope under the disciplines its
// spawns recorded. This is the per-computation reading of the
// paper's bound that a pooled multi-tenant report blurs — each concurrent
// DAG gets the envelope its own structure and span grant, not a share of a
// global one.
type JobReport struct {
	// Job is the runtime-assigned job ID (Event.Job).
	Job uint64
	// Reading is the job's sub-trace alone, reconstructed and judged.
	Reading
	// CacheCost is the job's own footprint-replay verdict (sim trials over
	// the job's isolated DAG), present only when Options.CacheModel was set.
	CacheCost *core.CacheCost
}

// MatrixCell is one cell of the fork replay matrix: the reconstructed DAG
// re-executed under one fork discipline and the random-single thief, so the
// deviation cost of either discipline can be compared on the same
// computation.
type MatrixCell struct {
	Fork sim.ForkPolicy
	// MeanDeviations summarizes the per-trial deviation counts against the
	// cell's own fork-policy sequential baseline; MeanSteals summarizes
	// stolen nodes.
	MeanDeviations float64
	MeanSteals     float64
	// MeanExtraMisses summarizes the cell's simulated additional cache
	// misses over the same trials (footprint replay vs the cell's own
	// fork-policy sequential baseline), and SeqMisses is that baseline's own
	// bill. Both zero unless Options.CacheModel was set.
	MeanExtraMisses float64
	SeqMisses       int64
	// Verdict judges the cell's worst trial: its budgets are the ones the
	// theorems grant this cell — only future-first on a covered class — and
	// its miss budget is 0 unless Options.CacheModel was set.
	core.Verdict
}

// Report is the profiler's outcome: the reconstructed DAG's classification,
// the measured deviation account of the real run, the theorem envelope the
// classification grants, and the simulator's prediction for the same DAG —
// predicted vs. measured in one place.
type Report struct {
	// Reading is the whole trace's, judged under the disciplines its spawns
	// recorded.
	Reading
	// P is the processor count used for the envelope and sim replay.
	P int
	// Sim is the simulator replay of the reconstructed DAG (predicted
	// deviations, steals and misses under the Section 3 model: future-first
	// × random-single, the cell the envelope belongs to).
	Sim *core.Report
	// Matrix is the fork replay of the same DAG — one cell per fork
	// discipline, future-first then parent-first, each under the
	// random-single thief — attributing predicted deviation cost to the fork
	// policy. Empty when Options.NoMatrix was set.
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
		opts.P = tr.workers()
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
	r := &Report{P: opts.P}
	pooled := func() error {
		// The primary replay is future-first × random-single (core's
		// defaults), the cell the envelope is granted for, and the report is
		// judged under the same discipline.
		simRep, err := core.Analyze(recon.Graph, core.AnalyzeOptions{
			P:          opts.P,
			Trials:     opts.Trials,
			Seed:       opts.Seed,
			CacheModel: opts.CacheModel,
		})
		if err != nil {
			return fmt.Errorf("profile: sim replay: %w", err)
		}
		r.Reading, r.Sim = read(recon, opts.P), simRep
		if !opts.NoMatrix {
			r.Matrix, err = replayMatrix(recon, simRep, opts)
			if err != nil {
				return fmt.Errorf("profile: fork matrix: %w", err)
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

// jobReports groups tr's events by job once and produces one isolated
// verdict per job — reconstruction, classification, and the job's own
// measured-vs-envelope check — for the already-sorted job IDs the pooled
// reconstruction observed, the jobs side by side (core.ForEach). No sim
// replay per job unless a cache model asks for the job's own miss bill: the
// pooled report's prediction already covers the whole trace; what the split
// adds is attribution.
func jobReports(tr *Trace, ids []uint64, opts Options) ([]JobReport, error) {
	runs := jobRuns(tr, ids)
	out := make([]JobReport, len(ids))
	err := core.ForEach(len(ids), func(i int) error {
		id := ids[i]
		rec, err := reconstruct(runs[i])
		if err != nil {
			return fmt.Errorf("job %d: %w", id, err)
		}
		jr := JobReport{Job: id}
		if opts.CacheModel != nil {
			// The job's own cache bill: sim trials over its isolated DAG,
			// each replayed through the footprint. The OPT baseline is
			// skipped per job — the pooled report already carries it.
			model := *opts.CacheModel
			model.NoIdeal = true
			jobSim, err := core.Analyze(rec.Graph, core.AnalyzeOptions{
				P:          opts.P,
				Trials:     opts.Trials,
				Seed:       opts.Seed,
				CacheModel: &model,
			})
			if err != nil {
				return fmt.Errorf("job %d cache cost: %w", id, err)
			}
			jr.CacheCost = jobSim.CacheCost
		}
		jr.Reading = read(rec, opts.P)
		out[i] = jr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayMatrix re-executes the reconstructed DAG under each fork
// discipline, Trials random-single schedules each, and returns one summary
// cell per discipline. Deviations in each cell are counted against the
// sequential execution of that cell's own fork policy (the paper always
// compares like with like), and so are its extra misses. Each cell's budgets
// are the ones core.Budget grants its fork discipline: only the future-first
// cell, the one the theorems cover, has any. That cell is the primary
// replay's, seed for seed, so it is not run again but read off primary: of
// the two cells, one is replayed.
func replayMatrix(recon *Recon, primary *core.Report, opts Options) ([]MatrixCell, error) {
	g := recon.Graph
	lines := 0
	if opts.CacheModel != nil {
		lines = opts.CacheModel.Lines
	}
	cells := []MatrixCell{{Fork: sim.FutureFirst}, {Fork: sim.ParentFirst}}
	for i := range cells {
		cells[i].Verdict = core.Budget(primary.Class, cells[i].Fork, opts.P, g.Span(), lines)
	}
	ff, pf := &cells[0], &cells[1]
	ff.summarize(primary.Deviations, primary.Steals)
	if primary.CacheCost != nil {
		ff.charge(primary.CacheCost)
	}
	// Parent-first has its own sequential order, and so its own bill over
	// the footprint the primary derived. The OPT baseline is skipped — the
	// primary carries it once. Trial i is seeded Seed + i, as the primary's.
	var cost *core.CacheCost
	if primary.CacheCost != nil {
		model := *opts.CacheModel
		model.NoIdeal = true
		var err error
		if cost, err = core.NewCacheCost(g, model, sim.ParentFirst, opts.P, opts.Trials); err != nil {
			return nil, err
		}
	}
	tr, err := core.RunTrials(g, sim.Config{P: opts.P, Policy: sim.ParentFirst}, opts.Trials,
		core.Seeded(opts.Seed), cost)
	if err != nil {
		return nil, err
	}
	pf.summarize(tr.Deviations, tr.Steals)
	if cost != nil {
		pf.charge(cost)
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
	c.MeanExtraMisses, c.MaxExtraMisses, c.SeqMisses = cc.MeanExtra(), cc.MaxExtra(), cc.SeqMisses
}

// String renders the report: reconstruction summary, classification,
// measured account, envelope, and the sim prediction.
func (r *Report) String() string {
	var sb strings.Builder
	c := r.Recon
	fmt.Fprintf(&sb, "reconstructed DAG:  %d tasks → T1=%d nodes, T∞=%d, t=%d touches",
		len(c.Tasks), r.Work, r.Span, r.Touches)
	if c.SuperFinal {
		sb.WriteString(" (super final node)")
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "class:              %s\n", r.Class)
	fmt.Fprintf(&sb, "spawn disciplines:  future-first=%d parent-first=%d\n",
		c.FutureFirstSpawns, c.ParentFirstSpawns)
	fmt.Fprintf(&sb, "measured:           deviations=%d (steals=%d helped=%d blocked=%d)  touches: inline=%d ready=%d helped=%d blocked=%d external=%d\n",
		r.MaxDeviations, c.Steals, c.HelpedTasks, c.BlockedWaits,
		c.InlineTouches, c.ReadyTouches, c.HelpedWaits, c.BlockedWaits, c.ExternalWaits)
	if r.DeviationBound > 0 {
		fmt.Fprintf(&sb, "envelope:           P·T∞² = %d·%d² = %d  → measured within bound: %v\n",
			r.P, r.Span, r.DeviationBound, r.WithinBound())
	} else {
		fmt.Fprintf(&sb, "envelope:           none: %s\n", r.withheld())
	}
	d := stats.Summarize(stats.Ints(r.Sim.Deviations))
	s := stats.Summarize(stats.Ints(r.Sim.Steals))
	fmt.Fprintf(&sb, "sim prediction:     deviations mean=%.1f max=%.0f, steals mean=%.1f (P=%d, %d trials, %s × %s)\n",
		d.Mean, d.Max, s.Mean, r.Sim.P, len(r.Sim.Deviations), r.Sim.Policy, r.Sim.Steal)
	// matrix renders one fork × steal table: a row per fork discipline under
	// the one steal column, each cell "mean/max" and starred where its
	// envelope is granted.
	matrix := func(what, envelope string, cell func(*MatrixCell) (mean float64, mx, bound int64)) {
		if len(r.Matrix) == 0 {
			return
		}
		fmt.Fprintf(&sb, "sim (fork × steal) %s matrix (mean/max per cell; * = %s envelope granted):\n", what, envelope)
		fmt.Fprintf(&sb, "  %-14s %15s\n", "", sim.RandomSingle)
		for i := range r.Matrix {
			mean, mx, bound := cell(&r.Matrix[i])
			v := fmt.Sprintf("%.1f/%d", mean, mx)
			if bound > 0 {
				v += "*"
			}
			fmt.Fprintf(&sb, "  %-14s %15s\n", r.Matrix[i].Fork, v)
		}
	}
	matrix("deviation", "P·T∞²", func(c *MatrixCell) (float64, int64, int64) {
		return c.MeanDeviations, c.MaxDeviations, c.DeviationBound
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
				jr.Job, jr.Class, jr.Work, jr.Span, jr.MaxDeviations,
				jr.Recon.Steals, jr.Recon.HelpedTasks, jr.Recon.BlockedWaits)
			if jr.CacheCost != nil {
				fmt.Fprintf(&sb, "  extra misses mean=%.1f max=%d",
					jr.CacheCost.MeanExtra(), jr.CacheCost.MaxExtra())
			}
			if jr.DeviationBound > 0 {
				fmt.Fprintf(&sb, "  envelope P·T∞²=%d within=%v\n", jr.DeviationBound, jr.WithinBound())
			} else {
				fmt.Fprintf(&sb, "  envelope none: %s\n", jr.withheld())
			}
		}
	}
	if len(c.Incomplete) > 0 {
		fmt.Fprintf(&sb, "trace gaps:         %d (%s, ...)\n", len(c.Incomplete), c.Incomplete[0])
	}
	return sb.String()
}
