// Command futuresim runs one figure or workload through the scheduler
// simulator and prints the full locality analysis: classification,
// deviations vs the paper's bound, cache misses vs the sequential baseline,
// and steal counts. With -graph it renders the figure's DAG as Graphviz DOT
// and simulates nothing.
//
// Usage:
//
//	futuresim -fig fig6c -k 16 -n 4 -trials 1 -adversary
//	futuresim -fig forkjoin -depth 8 -P 16 -C 64 -trials 32
//	futuresim -fig fig8 -annotate -adversary -csv trace.csv -dot run.dot
//	futuresim -fig fig6a -k 4 -graph - | dot -Tsvg > fig6a.svg
//
// With -adversary the figure's proof schedule is replayed (deterministic,
// Trials forced to 1); otherwise random work stealing with -seed is used.
// -chains, -csv and -dot all describe one extra run: the proof schedule
// under -adversary, otherwise trial 0's schedule (random control -seed).
package main

import (
	"flag"
	"fmt"
	"os"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
	"futurelocality/internal/sim"
)

func main() {
	var (
		fig       = flag.String("fig", "forkjoin", "figure/workload: "+fmt.Sprint(figreg.Names()))
		k         = flag.Int("k", 0, "k parameter (figure-specific default)")
		n         = flag.Int("n", 0, "n parameter")
		c         = flag.Int("c", 0, "chain-length parameter of the construction")
		depth     = flag.Int("depth", 0, "depth parameter")
		tparam    = flag.Int("t", 0, "touch-count parameter (fig3)")
		work      = flag.Int("work", 0, "per-unit work parameter")
		stages    = flag.Int("stages", 0, "pipeline stages")
		items     = flag.Int("items", 0, "pipeline items")
		annotate  = flag.Bool("annotate", false, "attach the proof's memory-block annotations")
		adversary = flag.Bool("adversary", false, "replay the figure's proof schedule")
		procs     = flag.Int("P", 4, "processors (ignored when the adversary script fixes it)")
		cacheC    = flag.Int("C", 64, "cache lines per processor (0 disables cache simulation)")
		policy    = flag.String("policy", "", "future-first | parent-first (default: the figure's)")
		trials    = flag.Int("trials", 8, "random-steal trials")
		seed      = flag.Int64("seed", 1, "random seed")
		csvOut    = flag.String("csv", "", "write the extra run's trace as CSV to this file")
		dotOut    = flag.String("dot", "", "write the extra run's execution DOT to this file")
		chains    = flag.Bool("chains", false, "print the extra run's deviation-chain decomposition")
		graphOut  = flag.String("graph", "", "write the DAG as DOT to this file (- for stdout) and exit without simulating")
		saveGraph = flag.String("save", "", "serialize the built graph to this file and exit")
		loadGraph = flag.String("load", "", "load a serialized graph instead of building -fig")
	)
	flag.Parse()

	spec := figreg.Spec{
		K: *k, N: *n, C: *c, Depth: *depth, T: *tparam, Work: *work,
		Stages: *stages, Items: *items, Seed: *seed, Annotate: *annotate,
	}
	inst, err := figreg.Build(*fig, spec)
	if err != nil {
		fatal(err)
	}
	if *loadGraph != "" {
		f, err := os.Open(*loadGraph)
		if err != nil {
			fatal(err)
		}
		g, err := dag.ReadBinary(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		inst = &figreg.Instance{Name: *loadGraph, Graph: g, Policy: sim.FutureFirst,
			Desc: "loaded from " + *loadGraph}
	}
	if *saveGraph != "" {
		writeFile(*saveGraph, func(f *os.File) error { return dag.WriteBinary(f, inst.Graph) })
		fmt.Printf("saved %s (%d nodes) to %s\n", inst.Name, inst.Graph.Len(), *saveGraph)
		return
	}
	if *graphOut != "" {
		writeFile(*graphOut, func(f *os.File) error { return dag.WriteDOT(f, inst.Graph, inst.Name) })
		return
	}
	pol := inst.Policy
	switch *policy {
	case "future-first":
		pol = sim.FutureFirst
	case "parent-first":
		pol = sim.ParentFirst
	case "":
	default:
		fatal(fmt.Errorf("unknown -policy %q", *policy))
	}
	p := *procs
	opts := core.AnalyzeOptions{
		P: p, CacheLines: *cacheC, Policy: pol, Trials: *trials, Seed: *seed,
	}
	if *adversary {
		if inst.Script == nil {
			fatal(fmt.Errorf("figure %s has no adversary script", inst.Name))
		}
		if inst.Procs > 0 {
			opts.P = inst.Procs
		}
		opts.Control = inst.Script
		opts.Trials = 1
	}

	fmt.Printf("figure:      %s — %s\n", inst.Name, inst.Desc)
	rep, err := core.Analyze(inst.Graph, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)

	if !*chains && *csvOut == "" && *dotOut == "" {
		return
	}
	// The one extra run all three outputs describe.
	seq, err := sim.Sequential(inst.Graph, pol, *cacheC, cache.LRU)
	if err != nil {
		fatal(err)
	}
	var ctrl sim.Control = sim.NewRandomControl(*seed)
	if *adversary {
		// Analyze consumed the script, and scripts are single-use.
		fresh, err := figreg.Build(*fig, spec)
		if err != nil {
			fatal(err)
		}
		ctrl = fresh.Script
	}
	eng, err := sim.New(inst.Graph, sim.Config{P: opts.P, Policy: pol, CacheLines: *cacheC, Control: ctrl})
	if err != nil {
		fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		fatal(err)
	}
	if *chains {
		fmt.Printf("chains:      %s\n", core.DeviationChains(inst.Graph, seq.SeqOrder(), res))
	}
	if *csvOut != "" {
		writeFile(*csvOut, func(f *os.File) error { return sim.WriteCSV(f, inst.Graph, res) })
		fmt.Printf("trace csv:   %s\n", *csvOut)
	}
	if *dotOut != "" {
		writeFile(*dotOut, func(f *os.File) error {
			return sim.WriteDOT(f, inst.Graph, res, seq.SeqOrder(), inst.Name)
		})
		fmt.Printf("trace dot:   %s\n", *dotOut)
	}
}

// writeFile hands fn the named file, or standard output for "-".
func writeFile(path string, fn func(*os.File) error) {
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "futuresim:", err)
	os.Exit(1)
}
