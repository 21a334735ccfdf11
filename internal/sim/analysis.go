package sim

import (
	"fmt"
	"io"

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
func NewSeqPred(seqOrder []dag.NodeID, n int) SeqPred { return seqPredOn(nil, seqOrder, n) }

// seqPredOn is NewSeqPred on buf's storage when it is large enough.
func seqPredOn(buf []dag.NodeID, seqOrder []dag.NodeID, n int) SeqPred {
	sp := SeqPred{pred: resize(buf, n), first: dag.None}
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

// Preds is the table itself: entry v is v's predecessor in the order,
// dag.None for its first node and for nodes it lacks. It aliases sp and must
// not be mutated.
func (sp SeqPred) Preds() []dag.NodeID { return sp.pred }

// deviates reports whether a deviation (Spoonhower et al.'s definition,
// quoted in Section 4) occurs at v, the next node processor p runs, and
// records v as the last node p ran; last[p] is dag.None until p has run one:
//
//	if v1 immediately precedes v2 in the sequential execution, then a
//	deviation occurs at v2 when the processor executing v2 did not execute
//	it immediately after v1 — because it executed something else in between,
//	or because v1 ran on a different processor.
//
// The first node of the sequential order deviates only when its processor
// executed something before it.
func (sp SeqPred) deviates(last []dag.NodeID, p ProcID, v dag.NodeID) bool {
	prev := last[p]
	last[p] = v
	if pred := sp.pred[v]; pred != dag.None {
		return prev != pred
	}
	return prev != dag.None && v == sp.first
}

// lastRan returns a table of p entries, each dag.None: the last node each
// processor ran, before any has run. It is buf when buf can hold p.
func lastRan(buf []dag.NodeID, p int) []dag.NodeID {
	if p > cap(buf) {
		buf = make([]dag.NodeID, p)
	}
	last := buf[:p]
	for i := range last {
		last[i] = dag.None
	}
	return last
}

// Deviations counts r's deviations from the sequential order, walking r's
// one sequence once; up to 64 processors it allocates nothing.
func (sp SeqPred) Deviations(r *Result) int64 {
	var buf [64]dag.NodeID
	last := lastRan(buf[:0], r.P)
	var n int64
	for _, v := range r.Order {
		if sp.deviates(last, r.Who[v], v) {
			n++
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

// DeviationNodes returns the deviated nodes themselves, in execution order
// (useful for classifying which structural positions deviate).
func DeviationNodes(seqOrder []dag.NodeID, r *Result) []dag.NodeID {
	sp := NewSeqPred(seqOrder, len(r.When))
	last := lastRan(nil, r.P)
	var out []dag.NodeID
	for _, v := range r.Order {
		if sp.deviates(last, r.Who[v], v) {
			out = append(out, v)
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
// execution, as g's dense block ids (NoBlock accesses included as
// dag.NoBlock entries so positions align with the execution order). Feed it
// to cache.OptimalMisses for offline-optimal comparisons.
func BlockTrace(g *dag.Graph, r *Result, p ProcID) []dag.BlockID {
	var out []dag.BlockID
	for _, v := range r.Order {
		if r.Who[v] == p {
			out = append(out, g.Nodes[v].Block)
		}
	}
	return out
}

// WriteCSV emits one row per executed node: global order, processor,
// node id, thread, block (the identity it was declared with), and the node's
// position in its processor's local order.
func WriteCSV(w io.Writer, g *dag.Graph, r *Result) error {
	if _, err := fmt.Fprintln(w, "order,proc,node,thread,block,local_index"); err != nil {
		return err
	}
	local := make([]int, r.P) // each processor's nodes so far
	for k, v := range r.Order {
		p, n := r.Who[v], &g.Nodes[v]
		blk := n.Block
		if blk != dag.NoBlock {
			blk = g.RawBlocks[blk]
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n",
			k, p, v, n.Thread, blk, local[p]); err != nil {
			return err
		}
		local[p]++
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
