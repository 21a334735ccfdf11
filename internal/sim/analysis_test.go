package sim

import (
	"strings"
	"testing"

	"futurelocality/internal/cache"
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
