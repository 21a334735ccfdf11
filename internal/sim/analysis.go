package sim

import (
	"fmt"
	"io"
	"sort"

	"futurelocality/internal/dag"
)

// SeqPred is a sequential order in the form deviation counting reads it:
// each node's immediate predecessor in that order. It depends on the baseline
// alone, so one SeqPred serves every trial measured against it.
type SeqPred struct {
	pred  []dag.NodeID // None for the order's first node and for nodes it lacks
	first dag.NodeID   // the order's first node; None when it is empty
}

// NewSeqPred indexes seqOrder, an order over a graph of n nodes.
func NewSeqPred(seqOrder []dag.NodeID, n int) SeqPred {
	sp := SeqPred{pred: make([]dag.NodeID, n), first: dag.None}
	for i := range sp.pred {
		sp.pred[i] = dag.None
	}
	if len(seqOrder) > 0 {
		sp.first = seqOrder[0]
	}
	for i := 1; i < len(seqOrder); i++ {
		sp.pred[seqOrder[i]] = seqOrder[i-1]
	}
	return sp
}

// deviates reports whether a deviation (Spoonhower et al.'s definition,
// quoted in Section 4) occurs at order[i], order being one processor's
// execution order:
//
//	if v1 immediately precedes v2 in the sequential execution, then a
//	deviation occurs at v2 when the processor executing v2 did not execute
//	it immediately after v1 — because it executed something else in between,
//	or because v1 ran on a different processor.
//
// The first node of the sequential order deviates only when its processor
// executed something before it.
func (sp SeqPred) deviates(order []dag.NodeID, i int) bool {
	v := order[i]
	if pred := sp.pred[v]; pred != dag.None {
		return i == 0 || order[i-1] != pred
	}
	return i != 0 && v == sp.first
}

// Deviations counts r's deviations from the sequential order, allocating
// nothing.
func (sp SeqPred) Deviations(r *Result) int64 {
	var n int64
	for _, order := range r.Order {
		for i := range order {
			if sp.deviates(order, i) {
				n++
			}
		}
	}
	return n
}

// Deviations counts the deviations of a parallel result relative to a
// sequential order. A caller with many results against one order builds the
// SeqPred once.
func Deviations(seqOrder []dag.NodeID, r *Result) int64 {
	return NewSeqPred(seqOrder, len(r.When)).Deviations(r)
}

// DeviationNodes returns the deviated nodes themselves, processor by
// processor in execution order (useful for classifying which structural
// positions deviate).
func DeviationNodes(seqOrder []dag.NodeID, r *Result) []dag.NodeID {
	sp := NewSeqPred(seqOrder, len(r.When))
	var out []dag.NodeID
	for _, order := range r.Order {
		for i, v := range order {
			if sp.deviates(order, i) {
				out = append(out, v)
			}
		}
	}
	return out
}

// PrematureTouches counts touches that were reached before their future
// thread was spawned: the touch's local parent executed before the
// corresponding fork. This is the pathology Figure 3 illustrates. For
// structured computations (Definition 1) it is impossible under ANY
// schedule: the local parent is a descendant of the fork, so the dependency
// order forces the fork first — which is exactly why structure lets the
// runtime assume a touched future always exists.
func PrematureTouches(g *dag.Graph, r *Result) int {
	n := 0
	for _, ti := range g.Touches {
		if ti.LocalParent == dag.None || ti.Fork == dag.None {
			continue
		}
		if r.When[ti.LocalParent] < r.When[ti.Fork] {
			n++
		}
	}
	return n
}

// Comparison packages the sequential-vs-parallel cache and deviation account
// for one parallel execution.
type Comparison struct {
	SeqMisses        int64
	ParMisses        int64
	AdditionalMisses int64 // ParMisses - SeqMisses (can be negative)
	Deviations       int64
	Steals           int64
	StealAttempts    int64
}

// Compare computes deviations and additional misses of r against the
// sequential baseline seq (which must come from Sequential with the same
// fork policy and cache geometry — the paper always compares like with
// like).
func Compare(seq, r *Result) Comparison {
	return Comparison{
		SeqMisses:        seq.TotalMisses,
		ParMisses:        r.TotalMisses,
		AdditionalMisses: r.TotalMisses - seq.TotalMisses,
		Deviations:       Deviations(seq.SeqOrder(), r),
		Steals:           r.Steals,
		StealAttempts:    r.StealAttempts,
	}
}

// BlockTrace extracts processor p's memory access sequence from an
// execution (NoBlock accesses included as dag.NoBlock entries so positions
// align with the execution order). Feed it to cache.OptimalMisses for
// offline-optimal comparisons.
func BlockTrace(g *dag.Graph, r *Result, p ProcID) []dag.BlockID {
	order := r.Order[p]
	out := make([]dag.BlockID, len(order))
	for i, v := range order {
		out[i] = g.Nodes[v].Block
	}
	return out
}

// WriteCSV emits one row per executed node: global order, processor,
// node id, thread, block, and the node's position in its processor's local
// order.
func WriteCSV(w io.Writer, g *dag.Graph, r *Result) error {
	if _, err := fmt.Fprintln(w, "order,proc,node,thread,block,local_index"); err != nil {
		return err
	}
	type row struct {
		when  int64
		proc  ProcID
		node  dag.NodeID
		local int
	}
	rows := make([]row, 0, g.Len())
	for p, order := range r.Order {
		for i, v := range order {
			rows = append(rows, row{r.When[v], ProcID(p), v, i})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].when < rows[j].when })
	for _, rr := range rows {
		n := &g.Nodes[rr.node]
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n",
			rr.when, rr.proc, rr.node, n.Thread, n.Block, rr.local); err != nil {
			return err
		}
	}
	return nil
}

// procPalette colors nodes by executing processor in WriteDOT.
var procPalette = []string{
	"lightblue", "palegreen", "khaki", "lightpink", "lightsalmon",
	"plum", "lightgray", "wheat",
}

// WriteDOT renders the DAG with execution info (dag.WriteDOTWith draws it):
// each node is labeled with its executing processor and global order, and
// colored by processor. Deviated nodes (relative to seqOrder) get a bold red
// border.
func WriteDOT(w io.Writer, g *dag.Graph, r *Result, seqOrder []dag.NodeID, name string) error {
	if name == "" {
		name = "execution"
	}
	deviated := make([]bool, g.Len())
	if seqOrder != nil {
		for _, v := range DeviationNodes(seqOrder, r) {
			deviated[v] = true
		}
	}
	return dag.WriteDOTWith(w, g, name, "shape=circle, fontsize=9, style=filled", func(id dag.NodeID) string {
		proc, color := r.Who[id], "white"
		if proc >= 0 {
			color = procPalette[int(proc)%len(procPalette)]
		}
		attrs := fmt.Sprintf("label=\"%d\\np%d@%d\", fillcolor=%s", id, proc, r.When[id], color)
		if deviated[id] {
			attrs += ", color=red, penwidth=2.5"
		}
		return attrs
	})
}
