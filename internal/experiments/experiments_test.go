package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllQuickRuns exercises every experiment at Quick scale: they must run
// without panicking and produce non-empty markdown containing a table or a
// summary bullet.
func TestAllQuickRuns(t *testing.T) {
	for _, r := range All(Quick) {
		if r.ID == "" || r.Title == "" {
			t.Fatalf("experiment missing metadata: %+v", r)
		}
		if len(r.Markdown) < 40 {
			t.Fatalf("%s: suspiciously short output:\n%s", r.ID, r.Markdown)
		}
		if !strings.Contains(r.Markdown, "|") && !strings.Contains(r.Markdown, "-") {
			t.Fatalf("%s: no table or bullets rendered", r.ID)
		}
	}
}

func TestRenderContainsAllSections(t *testing.T) {
	rs := []Result{
		{ID: "EX", Title: "t1", Markdown: "body1"},
		{ID: "EY", Title: "t2", Markdown: "body2"},
	}
	out := Render(rs)
	for _, want := range []string{"## EX — t1", "body1", "## EY — t2", "body2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in render", want)
		}
	}
}

// TestE2TightnessRatios asserts the lower-bound constructions land within a
// constant factor of their targets at Quick scale (the hard guarantees are
// in internal/adversary's tests; this re-checks through the harness path).
func TestE2TightnessRatios(t *testing.T) {
	r := E2(Quick)
	if !strings.Contains(r.Markdown, "Fig6c") {
		t.Fatalf("E2 missing Fig6c rows:\n%s", r.Markdown)
	}
}

func TestE8ReportsZeroViolations(t *testing.T) {
	r := E8(Quick)
	if !strings.Contains(r.Markdown, "**0 violations**") {
		t.Fatalf("E8 should report zero violations:\n%s", r.Markdown)
	}
}

// TestRegistryListsE1ToE16Once: the one list every driver iterates names
// each experiment once, in report order, and each runner answers to its ID.
func TestRegistryListsE1ToE16Once(t *testing.T) {
	if len(Registry) != 16 {
		t.Fatalf("Registry has %d entries, want 16", len(Registry))
	}
	for i, e := range Registry {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Fatalf("Registry[%d] is %s, want %s", i, e.ID, want)
		}
	}
	for _, e := range []Experiment{Registry[1], Registry[7], Registry[15]} {
		if got := e.Run(Quick).ID; got != e.ID {
			t.Fatalf("Registry entry %s runs experiment %s", e.ID, got)
		}
	}
}

// TestE16StarsOnlyTheTheoremCell: the miss envelope is granted at
// future-first × random-single and nowhere else, and the table is a function
// of the program — two live runs print the same bytes.
func TestE16StarsOnlyTheTheoremCell(t *testing.T) {
	r := E16(Quick)
	if n := strings.Count(r.Markdown, " * |"); n != 1 {
		t.Fatalf("%d starred cells, want 1:\n%s", n, r.Markdown)
	}
	if !strings.Contains(r.Markdown, "| future-first | ") || !strings.Contains(r.Markdown, "within bound: true") {
		t.Fatalf("E16 lacks its rows or its verdict:\n%s", r.Markdown)
	}
	if again := E16(Quick); again.Markdown != r.Markdown {
		t.Fatalf("E16 differs between two runs:\n%s\n---\n%s", r.Markdown, again.Markdown)
	}
}
