package dag_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// checkDense fails unless g's nodes hold dense block ids, numbered by first
// use in node order, and RawBlocks holds one distinct identity per id — nil
// when no node declares a block. given, when non-nil, is the identity each
// node was declared with, which RawBlocks must give back.
func checkDense(t testing.TB, name string, g *dag.Graph, given []dag.BlockID) {
	t.Helper()
	next := dag.BlockID(0)
	for v := range g.Nodes {
		b, want := g.Nodes[v].Block, dag.NoBlock
		if given != nil {
			want = given[v]
		}
		switch {
		case b == dag.NoBlock:
			if want != dag.NoBlock {
				t.Fatalf("%s: node %d was declared with block %d and holds none", name, v, want)
			}
			continue
		case b < 0 || b > next:
			t.Fatalf("%s: node %d holds block %d before block %d was used", name, v, b, next)
		case given != nil && g.RawBlocks[b] != want:
			t.Fatalf("%s: node %d was declared with block %d, RawBlocks[%d] = %d", name, v, want, b, g.RawBlocks[b])
		}
		if b == next {
			next++
		}
	}
	if int(next) != len(g.RawBlocks) || next == 0 && g.RawBlocks != nil {
		t.Fatalf("%s: %d dense ids in use, RawBlocks %v", name, next, g.RawBlocks)
	}
	seen := map[dag.BlockID]bool{}
	for _, raw := range g.RawBlocks {
		if seen[raw] {
			t.Fatalf("%s: identity %d has two dense ids", name, raw)
		}
		seen[raw] = true
	}
}

// TestBlocksDenseAtBirth: every graph the tree builds — each figure of the
// registry, annotated and not, each generator family, seeded random programs
// — numbers its blocks densely by first use; rebuilt through a Builder from
// the identities RawBlocks gives back, it numbers them the same and maps
// each back to what Access was given; and the codec, which stores the
// identities, reproduces both the nodes and the table.
func TestBlocksDenseAtBirth(t *testing.T) {
	type subject struct {
		name string
		g    *dag.Graph
	}
	var subjects []subject
	for _, name := range figreg.Names() {
		for _, annotate := range []bool{false, true} {
			inst, err := figreg.Build(name, figreg.Spec{Annotate: annotate})
			if err != nil {
				t.Fatal(err)
			}
			subjects = append(subjects, subject{fmt.Sprintf("%s annotate=%v", name, annotate), inst.Graph})
		}
	}
	for kind := uint8(0); kind < numFamilies; kind++ {
		subjects = append(subjects, subject{fmt.Sprintf("family %d", kind), family(kind, 5, 3, int64(kind))})
	}
	for seed := int64(1); seed <= 8; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("random seed %d", seed),
			graphs.RandomStructured(seed, graphs.RandomConfig{MaxNodes: 600, MaxDepth: 10, MaxBlocks: 24})})
	}
	declaring := 0
	for _, s := range subjects {
		checkDense(t, s.name, s.g, nil)
		if len(s.g.RawBlocks) > 0 {
			declaring++
		}
		g2, err := dag.ReadBinary(bytes.NewReader(encode(t, s.g)))
		if err != nil || !sameTables(s.g, g2) {
			t.Fatalf("%s: codec round trip does not reproduce the graph: %v", s.name, err)
		}
		if s.g.SuperFinal {
			continue // rebuild replays only graphs without a super final node
		}
		given := make([]dag.BlockID, s.g.Len())
		for v := range given {
			given[v] = declared(s.g, dag.NodeID(v))
		}
		r, err := rebuild(s.g, false, 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkDense(t, s.name+" rebuilt", r, given)
		if !sameTables(s.g, r) {
			t.Fatalf("%s: rebuilt from its identities, the graph differs", s.name)
		}
	}
	if declaring < len(subjects)/3 {
		t.Fatalf("only %d of %d subjects declare blocks", declaring, len(subjects))
	}
}

// TestBlocksPrintAsDeclared: the DOT and CSV writers print the identity a
// block was declared with, not its dense id.
func TestBlocksPrintAsDeclared(t *testing.T) {
	b := dag.NewBuilder()
	m := b.Main()
	m.Access(1000)
	m.Access(7)
	g := b.MustBuild()
	var dot bytes.Buffer
	if err := dag.WriteDOT(&dot, g, ""); err != nil {
		t.Fatal(err)
	}
	if s := dot.String(); !strings.Contains(s, `\nm1000"`) || !strings.Contains(s, `\nm7"`) {
		t.Fatalf("DOT does not name blocks 1000 and 7:\n%s", s)
	}
	res, err := sim.Sequential(g, sim.FutureFirst, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := sim.WriteCSV(&csv, g, res); err != nil {
		t.Fatal(err)
	}
	if want := "0,0,0,0,1000,0\n1,0,1,0,7,1\n"; !strings.HasSuffix(csv.String(), want) {
		t.Fatalf("CSV rows\n%s\nwant them to end\n%s", csv.String(), want)
	}
}
