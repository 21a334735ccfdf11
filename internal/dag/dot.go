package dag

import (
	"fmt"
	"io"
)

// WriteDOT renders the graph in Graphviz DOT format. Continuation edges are
// solid, future edges dashed, touch edges dotted, join edges dotted gray.
// Nodes annotate their thread and, when present, the accessed memory block.
// Intended for the small paper-figure graphs; rendering a million-node bench
// graph is possible but unhelpful.
func WriteDOT(w io.Writer, g *Graph, name string) error {
	if name == "" {
		name = "computation"
	}
	return WriteDOTWith(w, g, name, "shape=circle, fontsize=10", func(id NodeID) string {
		n := &g.Nodes[id]
		label := fmt.Sprintf("%d\\nt%d", id, n.Thread)
		if n.Block != NoBlock {
			label += fmt.Sprintf("\\nm%d", n.Block)
		}
		attrs := fmt.Sprintf("label=\"%s\"", label)
		switch {
		case id == g.Root:
			attrs += ", style=filled, fillcolor=palegreen"
		case id == g.Final:
			attrs += ", style=filled, fillcolor=lightpink"
		case n.IsFork():
			attrs += ", style=filled, fillcolor=lightblue"
		case n.NIn >= 2:
			attrs += ", style=filled, fillcolor=khaki"
		}
		return attrs
	})
}

// edgeStyle is the DOT attribute list of each edge kind.
var edgeStyle = [...]string{
	EdgeCont:   "style=solid",
	EdgeFuture: "style=dashed, color=blue",
	EdgeTouch:  "style=dotted, color=red",
	EdgeJoin:   "style=dotted, color=gray",
}

// WriteDOTWith is the one DOT emitter: the graph's nodes, each with the
// attribute list attrs gives it, under the node defaults in nodeDefaults,
// then every edge styled by its kind. WriteDOT labels nodes by structure;
// sim.WriteDOT overlays an execution.
func WriteDOTWith(w io.Writer, g *Graph, name, nodeDefaults string, attrs func(NodeID) string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [%s];\n", name, nodeDefaults); err != nil {
		return err
	}
	for id := range g.Nodes {
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", id, attrs(NodeID(id))); err != nil {
			return err
		}
	}
	for id := range g.Nodes {
		for _, e := range g.Nodes[id].OutEdges() {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d [%s];\n", id, e.To, edgeStyle[e.Kind]); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
