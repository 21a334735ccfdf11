package sim

import (
	"fmt"
	"io"
	"sort"

	"futurelocality/internal/dag"
)

// Deviations counts the deviations (Spoonhower et al.'s definition, quoted
// in Section 4) of a parallel result relative to a sequential order:
//
//	if v1 immediately precedes v2 in the sequential execution, then a
//	deviation occurs at v2 when the processor executing v2 did not execute
//	it immediately after v1 — because it executed something else in between,
//	or because v1 ran on a different processor.
//
// The first node of the sequential order can never deviate.
func Deviations(seqOrder []dag.NodeID, r *Result) int64 {
	return int64(len(DeviationNodes(seqOrder, r)))
}

// DeviationNodes returns the deviated nodes themselves, in node-ID order
// (useful for classifying which structural positions deviate).
func DeviationNodes(seqOrder []dag.NodeID, r *Result) []dag.NodeID {
	// seqPred[v] = node immediately before v in the sequential execution.
	seqPred := make([]dag.NodeID, len(r.When))
	for i := range seqPred {
		seqPred[i] = dag.None
	}
	for i := 1; i < len(seqOrder); i++ {
		seqPred[seqOrder[i]] = seqOrder[i-1]
	}
	var out []dag.NodeID
	for _, order := range r.Order {
		for i, v := range order {
			pred := seqPred[v]
			if pred == dag.None {
				// v is the sequential root: executing it first is never a
				// deviation; executing it after something else is.
				if i != 0 && len(seqOrder) > 0 && seqOrder[0] == v {
					out = append(out, v)
				}
				continue
			}
			if i == 0 || order[i-1] != pred {
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
