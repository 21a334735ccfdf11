package dag

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return g2
}

func graphsEqual(a, b *Graph) bool {
	if a.Len() != b.Len() || a.Root != b.Root || a.Final != b.Final ||
		a.SuperFinal != b.SuperFinal || a.NumThreads() != b.NumThreads() ||
		len(a.Touches) != len(b.Touches) || !slices.Equal(a.RawBlocks, b.RawBlocks) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	for i := range a.Touches {
		if a.Touches[i] != b.Touches[i] {
			return false
		}
	}
	for t := 0; t < a.NumThreads(); t++ {
		if a.ThreadFirst[t] != b.ThreadFirst[t] || a.ThreadLast[t] != b.ThreadLast[t] ||
			a.ThreadFork[t] != b.ThreadFork[t] {
			return false
		}
	}
	return true
}

func TestCodecRoundTripFig4(t *testing.T) {
	g, _ := buildFig4(t)
	if !graphsEqual(g, roundTrip(t, g)) {
		t.Fatal("round trip changed the graph")
	}
}

func TestCodecRoundTripSuperFinal(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Step()
	f := m.Fork()
	f.Steps(2)
	m.Steps(2)
	g, err := b.BuildSuperFinal()
	if err != nil {
		t.Fatal(err)
	}
	g2 := roundTrip(t, g)
	if !g2.SuperFinal {
		t.Fatal("SuperFinal lost")
	}
	if !graphsEqual(g, g2) {
		t.Fatal("round trip changed the graph")
	}
}

func TestCodecRoundTripWithJoinsAndBlocks(t *testing.T) {
	b := NewBuilder()
	m := b.Main()
	m.Access(3)
	f := m.Fork()
	f.AccessSeq(1, 2)
	j := m.Fork()
	j.Step()
	m.Step()
	m.Touch(f)
	m.JoinAccess(j, 9)
	m.Step()
	g := b.MustBuild()
	if !graphsEqual(g, roundTrip(t, g)) {
		t.Fatal("round trip changed the graph")
	}
}

func TestCodecRoundTripPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraphForQuick(seed)
		return graphsEqual(g, roundTrip(t, g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("FLDG"),                     // truncated after magic
		[]byte("FLDG\x02\x00\x02\x02"),     // wrong version
		[]byte("FLDG\x01\x00\x00\x00"),     // zero nodes
		[]byte("FLDG\x01\x00\x04\x02\x00"), // truncated nodes
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestCodecRejectsBackwardEdge(t *testing.T) {
	g := chain(t, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Flip an edge target byte to point backwards: rebuild manually.
	g.Nodes[1].Out[0] = Edge{To: 1, Kind: EdgeCont} // self edge
	var buf2 bytes.Buffer
	if err := WriteBinary(&buf2, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf2); err == nil {
		t.Fatal("backward edge accepted")
	}
}
