package sim

import (
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
