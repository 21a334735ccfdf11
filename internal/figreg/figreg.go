// Package figreg is a registry mapping figure/workload names to built
// graphs, their adversarial scripts and recommended run parameters: the
// names cmd/futuresim's -fig flag accepts.
package figreg

import (
	"fmt"
	"sort"
	"strings"

	"futurelocality/internal/adversary"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// Spec carries the union of generator parameters; zero fields take
// per-figure defaults.
type Spec struct {
	K, N, C, Depth, T int
	Work              int
	Stages, Items     int
	Seed              int64
	Annotate          bool
}

// Instance is a built figure ready to run.
type Instance struct {
	Name  string
	Graph *dag.Graph
	// Script is the proof's adversarial schedule (nil when the figure has
	// none; run with a random control instead).
	Script *adversary.Script
	// Procs is the processor count the script expects (0 = caller's
	// choice).
	Procs int
	// Policy is the fork policy the paper analyzes the figure under.
	Policy sim.ForkPolicy
	// Desc is a one-line description.
	Desc string
}

func def(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// Build constructs the named figure. See Names for the accepted names.
func Build(name string, s Spec) (*Instance, error) {
	switch strings.ToLower(name) {
	case "fig2":
		g, info := graphs.Fig2(def(s.N, 16), def(s.C, 8), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.OneSteal(info.Root, info.Ext),
			Procs: 2, Policy: sim.ParentFirst,
			Desc: "per-touch Ω(C·T∞) gadget (Figure 2)"}, nil
	case "fig3":
		g, info := graphs.Fig3(def(s.T, 4), def(s.Work, 3), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.Fig3(info), Procs: 2,
			Policy: sim.FutureFirst, Desc: "unstructured premature-touch example (Figure 3)"}, nil
	case "fig4":
		return &Instance{Name: name, Graph: graphs.Fig4(), Policy: sim.FutureFirst,
			Desc: "structured single-touch example (Figure 4)"}, nil
	case "fig5a":
		return &Instance{Name: name, Graph: graphs.Fig5a(), Policy: sim.FutureFirst,
			Desc: "MethodA: out-of-order touches (Figure 5a)"}, nil
	case "fig5b":
		return &Instance{Name: name, Graph: graphs.Fig5b(), Policy: sim.FutureFirst,
			Desc: "MethodB/C: future passed to another thread (Figure 5b)"}, nil
	case "fig6a":
		g, info := graphs.Fig6a(def(s.K, 16), def(s.C, 1), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.Fig6a(info), Procs: 2,
			Policy: sim.FutureFirst, Desc: "Theorem 9 building block (Figure 6a)"}, nil
	case "fig6b":
		g, info := graphs.Fig6b(def(s.K, 8), def(s.C, 1), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.Fig6b(info), Procs: 3,
			Policy: sim.FutureFirst, Desc: "Theorem 9 chained blocks (Figure 6b)"}, nil
	case "fig6c":
		g, info := graphs.Fig6c(def(s.N, 4), def(s.K, 8), def(s.C, 1), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.Fig6c(info),
			Procs: adversary.Procs6c(info), Policy: sim.FutureFirst,
			Desc: "Theorem 9 full worst case (Figure 6c)"}, nil
	case "fig7b":
		g, info := graphs.Fig7b(def(s.K, 6), def(s.N, 16), def(s.C, 8), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.OneSteal(info.R, info.S[0]),
			Procs: 2, Policy: sim.ParentFirst,
			Desc: "Theorem 10 parity chain (Figure 7b)"}, nil
	case "fig8":
		g, info := graphs.Fig8(def(s.Depth, 4), def(s.N, 12), def(s.C, 6), s.Annotate)
		return &Instance{Name: name, Graph: g, Script: adversary.OneSteal(info.R, info.SRoot),
			Procs: 2, Policy: sim.ParentFirst,
			Desc: "Theorem 10 full worst case (Figure 8)"}, nil
	case "forkjoin":
		return &Instance{Name: name, Graph: graphs.ForkJoinTree(def(s.Depth, 6), def(s.Work, 4), s.Annotate),
			Policy: sim.FutureFirst, Desc: "balanced fork-join tree"}, nil
	case "fib":
		return &Instance{Name: name, Graph: graphs.Fib(def(s.N, 12), 3),
			Policy: sim.FutureFirst, Desc: "future-parallel Fibonacci"}, nil
	case "quicksort":
		return &Instance{Name: name, Graph: graphs.Quicksort(def(s.N, 2048), def(s.Work, 64), s.Seed+1, s.Annotate),
			Policy: sim.FutureFirst, Desc: "irregular randomized-quicksort fork-join"}, nil
	case "pipeline":
		g, _ := graphs.Pipeline(def(s.Stages, 4), def(s.Items, 16), def(s.Work, 3), s.Annotate)
		return &Instance{Name: name, Graph: g, Policy: sim.FutureFirst,
			Desc: "local-touch pipeline (Section 6.1)"}, nil
	case "random":
		g := graphs.RandomStructured(s.Seed, graphs.RandomConfig{
			MaxNodes: def(s.N, 400), MaxBlocks: def(s.C, 16)})
		return &Instance{Name: name, Graph: g, Policy: sim.FutureFirst,
			Desc: "random structured single-touch program"}, nil
	default:
		return nil, fmt.Errorf("figreg: unknown figure %q (known: %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the registered figure names.
func Names() []string {
	ns := []string{"fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c",
		"fig7b", "fig8", "forkjoin", "fib", "pipeline", "quicksort", "random"}
	sort.Strings(ns)
	return ns
}
