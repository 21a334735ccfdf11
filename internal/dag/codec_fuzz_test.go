package dag_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/sim"
)

func encode(t testing.TB, g *dag.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dag.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTables compares everything a Graph exports: the nodes and the thread
// and touch tables ReadBinary derives from them.
func sameTables(a, b *dag.Graph) bool {
	return a.Root == b.Root && a.Final == b.Final && a.SuperFinal == b.SuperFinal &&
		reflect.DeepEqual(a.Nodes, b.Nodes) && reflect.DeepEqual(a.Touches, b.Touches) &&
		reflect.DeepEqual(a.ThreadFirst, b.ThreadFirst) &&
		reflect.DeepEqual(a.ThreadLast, b.ThreadLast) && reflect.DeepEqual(a.ThreadFork, b.ThreadFork)
}

// codecSeeds are builder graphs of every shape the model has: each generator
// family plain, with a super final node that is some threads' only touch, and
// with a promise touch between two arbitrary nodes.
func codecSeeds(t testing.TB) []*dag.Graph {
	var out []*dag.Graph
	for kind := uint8(0); kind < numFamilies; kind++ {
		base := family(kind, 5, 3, int64(kind))
		out = append(out, base)
		for _, v := range []struct {
			super  bool
			drop   uint16
			thirds int // the extra promise touch lands this far into the graph; 0 = none
		}{{true, 0xaaaa, 0}, {false, 0, 1}, {true, 0xffff, 2}} {
			at := dag.NodeID(base.Len() * v.thirds / 3)
			if g, err := rebuild(base, v.super, v.drop, at/2, at); err == nil {
				out = append(out, g)
			}
		}
	}
	return out
}

// TestCodecDerivesBuilderTables: the tables ReadBinary derives from the edges
// are the tables the Builder recorded, for every seed shape.
func TestCodecDerivesBuilderTables(t *testing.T) {
	for i, g := range codecSeeds(t) {
		g2, err := dag.ReadBinary(bytes.NewReader(encode(t, g)))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !sameTables(g, g2) {
			t.Fatalf("seed %d (%d nodes, super=%v): derived tables differ from the builder's\n got %+v\nwant %+v",
				i, g.Len(), g.SuperFinal, g2.Touches, g.Touches)
		}
	}
}

// issue23Input is a version-1 file that decoded without error and then
// panicked Classify (`index out of range [25] with length 3` in
// touchesByThread): version 1 stored the thread and touch tables and
// ReadBinary believed them.
const issue23Input = "FLDG\x020\f\x04\x000\x02\x02\x02\x000\x04\x04\x04\x02\b\x020\x02\x02\x06\x020\x02\x06\n\x000\x02\x02\n\x000\x00000000\x02000000"

func TestCodecRejectsStoredTables(t *testing.T) {
	if _, err := dag.ReadBinary(bytes.NewReader([]byte(issue23Input))); !errors.Is(err, dag.ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

// TestCodecAllocationFollowsInput: a header may claim any node count; what
// ReadBinary allocates is bounded by the bytes that are there.
func TestCodecAllocationFollowsInput(t *testing.T) {
	// version 2, no super final node, 2^28 nodes, 1 thread — 9 bytes in all.
	in := []byte("FLDG\x04\x00\x80\x80\x80\x80\x02\x02")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := dag.ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, dag.ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte input made ReadBinary allocate %d bytes", len(in), grew)
	}
}

// FuzzReadBinary: any input is either refused with ErrBadFormat or is a graph
// the rest of the tree can use — it re-encodes to itself, Classify accepts
// it, and the simulator runs it to completion.
func FuzzReadBinary(f *testing.F) {
	for _, g := range codecSeeds(f) {
		f.Add(encode(f, g))
	}
	f.Add([]byte(issue23Input))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := dag.ReadBinary(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, dag.ErrBadFormat) {
				t.Fatalf("error %v is not ErrBadFormat", err)
			}
			return
		}
		g2, err := dag.ReadBinary(bytes.NewReader(encode(t, g)))
		if err != nil || !sameTables(g, g2) {
			t.Fatalf("accepted graph does not re-encode to itself: %v", err)
		}
		dag.Classify(g)
		eng, err := sim.New(g, sim.Config{P: 3, Control: sim.NewRandomControl(1)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatal(err)
		}
	})
}
