package sim

import (
	"bytes"
	"encoding/binary"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
)

func TestWriteCSVAndDOT(t *testing.T) {
	g := graphs.ForkJoinTree(3, 2, true)
	seq, err := Sequential(g, FutureFirst, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, Config{P: 3, CacheLines: 8, Control: NewRandomControl(5)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	var csv strings.Builder
	if err := WriteCSV(&csv, g, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != g.Len()+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), g.Len()+1)
	}
	if lines[0] != "order,proc,node,thread,block,local_index" {
		t.Fatalf("header = %q", lines[0])
	}
	// Rows are sorted by global order starting at 0.
	if !strings.HasPrefix(lines[1], "0,") {
		t.Fatalf("first row = %q", lines[1])
	}

	var dot strings.Builder
	if err := WriteDOT(&dot, g, res, seq.SeqOrder(), "t"); err != nil {
		t.Fatal(err)
	}
	out := dot.String()
	for _, want := range []string{"digraph", "fillcolor=", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot missing %q", want)
		}
	}
}

// dotNode matches one node line of WriteDOT's output: its id and attributes.
var dotNode = regexp.MustCompile(`(?m)^  n(\d+) \[(.*)\];$`)

// TestWriteDOTMarksDeviations: on a seeded schedule that deviates, the nodes
// WriteDOT outlines in red are exactly DeviationNodes, none are without a
// sequential order, and every node is filled with its processor's colour.
func TestWriteDOTMarksDeviations(t *testing.T) {
	g := graphs.ForkJoinTree(3, 2, true)
	seq, err := Sequential(g, FutureFirst, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, Config{P: 3, CacheLines: 8, Control: NewRandomControl(5)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := DeviationNodes(seq.SeqOrder(), res)
	if len(want) == 0 {
		t.Fatal("seeded schedule has no deviation to mark")
	}
	slices.Sort(want)
	for _, seqOrder := range [][]dag.NodeID{seq.SeqOrder(), nil} {
		var dot strings.Builder
		if err := WriteDOT(&dot, g, res, seqOrder, "t"); err != nil {
			t.Fatal(err)
		}
		var red []dag.NodeID
		nodes := dotNode.FindAllStringSubmatch(dot.String(), -1)
		if len(nodes) != g.Len() {
			t.Fatalf("%d node lines, want %d", len(nodes), g.Len())
		}
		for _, m := range nodes {
			id, _ := strconv.Atoi(m[1])
			attrs := strings.Split(m[2], ", ")
			if slices.Contains(attrs, "color=red") {
				red = append(red, dag.NodeID(id))
			}
			if fill := "fillcolor=" + procPalette[int(res.Who[id])%len(procPalette)]; !slices.Contains(attrs, fill) {
				t.Errorf("node %d on p%d: attributes %q lack %s", id, res.Who[id], m[2], fill)
			}
		}
		if seqOrder == nil {
			if len(red) != 0 {
				t.Errorf("no sequential order, yet nodes %v are marked", red)
			}
		} else if !slices.Equal(red, want) {
			t.Errorf("marked nodes %v, want the deviations %v", red, want)
		}
	}
}

func TestReplayAcceptsValidExecution(t *testing.T) {
	g := graphs.Fib(8, 3)
	eng, err := New(g, Config{P: 2, Control: NewRandomControl(1)})
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
}

// TestReplayRejectsCorruptedWho: Validate refuses a schedule whose Who names
// no processor of the run, and one whose Order is not When's inverse.
func TestReplayRejectsCorruptedWho(t *testing.T) {
	g := graphs.Fib(8, 3)
	for _, c := range []struct {
		name    string
		corrupt func(r *Result)
	}{
		{"processor past P", func(r *Result) { r.Who[r.Order[0]] = ProcID(r.P) }},
		{"no processor", func(r *Result) { r.Who[r.Order[0]] = NoProc }},
		{"order swapped", func(r *Result) { r.Order[0], r.Order[1] = r.Order[1], r.Order[0] }},
		{"a node run twice", func(r *Result) { r.Order[1] = r.Order[0] }},
	} {
		eng, _ := New(g, Config{P: 2, Control: NewRandomControl(1)})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		c.corrupt(res)
		if err := res.Validate(g); err == nil {
			t.Fatalf("%s: Validate accepted the schedule", c.name)
		}
	}
}

// TestPrematureTouchesSkipsTouchesWithoutBothParents: a touch is premature
// when its local parent ran before its fork, so a touch that lacks either
// has nothing to compare and is skipped. A Builder never makes a touch
// without a local parent (a fork child cannot be a touch, so the touching
// thread has run a node first, and a super final node follows the main
// thread's last node), but a decoded graph may make the main thread the
// touched one, whose fork is dag.None. This one is that graph: the root forks
// thread 1 and its continuation touches thread 1's last node, the sink.
func TestPrematureTouchesSkipsTouchesWithoutBothParents(t *testing.T) {
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.AppendVarint(buf, v)
		}
	}
	buf = append(buf, "FLDG"...)
	put(2, 0, 4, 2) // version, not super final, 4 nodes, 2 threads
	put(0, 0, 2, int64(dag.EdgeFuture), 1, int64(dag.EdgeCont), 2)
	put(1, 0, 1, int64(dag.EdgeCont), 3)
	put(0, 0, 1, int64(dag.EdgeTouch), 3)
	put(1, 0, 0)
	g, err := dag.ReadBinary(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Touches) != 1 || g.Touches[0].LocalParent == dag.None || g.Touches[0].Fork != dag.None {
		t.Fatalf("touch table %+v: want one touch with a local parent and no fork", g.Touches)
	}
	for _, fork := range []ForkPolicy{FutureFirst, ParentFirst} {
		for _, p := range []int{1, 2} {
			e, err := New(g, Config{P: p, Policy: fork, Control: NewRandomControl(int64(p))})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if n := PrematureTouches(g, res); n != 0 {
				t.Fatalf("%s P=%d: %d premature touches of a touch with no fork", fork, p, n)
			}
		}
	}
}

// TestSeqPredOfEmptyOrder: an empty order has no first node and no
// predecessors, and a result measured against it deviates nowhere but where
// a processor runs a second node.
func TestSeqPredOfEmptyOrder(t *testing.T) {
	sp := NewSeqPred(nil, 3)
	if sp.first != dag.None || !slices.Equal(sp.Preds(), []dag.NodeID{dag.None, dag.None, dag.None}) {
		t.Fatalf("SeqPred of an empty order: first %d, preds %v", sp.first, sp.Preds())
	}
	if n := sp.Deviations(&Result{P: 1}); n != 0 {
		t.Fatalf("an empty result against an empty order has %d deviations", n)
	}
}

// TestDeviationsBeyondTheStackBuffer: Deviations keeps each processor's last
// node in a buffer of 64 on the stack and grows it for more processors. At 80
// processors every one of them must still be told apart: the count equals the
// per-processor reference's.
func TestDeviationsBeyondTheStackBuffer(t *testing.T) {
	g := graphs.Fib(10, 2)
	seq, err := Sequential(g, FutureFirst, 0, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, Config{P: 80, Control: NewRandomControl(3)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	used := map[ProcID]bool{}
	for _, p := range res.Who {
		used[p] = true
	}
	want := referenceDeviationNodes(seq.SeqOrder(), res)
	if got := NewSeqPred(seq.SeqOrder(), g.Len()).Deviations(res); got != int64(len(want)) || len(used) <= 64 {
		t.Fatalf("P=80 (%d processors ran nodes): %d deviations, reference %d", len(used), got, len(want))
	}
}
