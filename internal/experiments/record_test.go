package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// recordExempt are the sections of EXPERIMENTS.md that no test regenerates:
// E9 and E15 measure the host they ran on, and E16's recorded text around
// its table was written by hand.
var recordExempt = map[string]bool{"E9": true, "E15": true, "E16": true}

// TestExperimentsRecordMatches regenerates every deterministic section of
// EXPERIMENTS.md (E1–E8, E10–E14) at Full scale and requires each one's
// markdown to appear verbatim under its heading there, so a change to the
// model that moves a recorded number fails here instead of going unnoticed.
// A failure names the section and the first line that differs; regenerate
// with `go run ./cmd/paperbench -scale full` when the change is meant.
func TestExperimentsRecordMatches(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := time.Now()
	checked := 0
	for _, e := range Registry {
		if recordExempt[e.ID] {
			continue
		}
		r := e.Run(Full)
		heading := "## " + r.ID + " — " + r.Title + "\n"
		at := strings.Index(doc, heading)
		if at < 0 {
			t.Errorf("%s: EXPERIMENTS.md has no heading %q", r.ID, strings.TrimSpace(heading))
			continue
		}
		section := doc[at+len(heading):]
		if next := strings.Index(section, "\n## "); next >= 0 {
			section = section[:next+1]
		}
		if !strings.Contains(section, r.Markdown) {
			t.Errorf("%s: the recorded section differs from a Full run: %s", r.ID, firstDiff(section, r.Markdown))
		}
		checked++
	}
	if checked != len(Registry)-len(recordExempt) {
		t.Fatalf("checked %d sections, want %d", checked, len(Registry)-len(recordExempt))
	}
	t.Logf("regenerated %d sections in %v", checked, time.Since(start))
}

// firstDiff names the first line of got that the recorded section lacks at
// its place: the section is searched for got's first line, and from there
// line by line.
func firstDiff(section, got string) string {
	want := strings.Split(section, "\n")
	lines := strings.Split(got, "\n")
	i := 0
	for i < len(want) && want[i] != lines[0] {
		i++
	}
	if i == len(want) {
		return fmt.Sprintf("first line %q is not recorded", lines[0])
	}
	for j, l := range lines {
		if i+j >= len(want) {
			return fmt.Sprintf("line %q is past the recorded section's end", l)
		}
		if want[i+j] != l {
			return fmt.Sprintf("run prints %q, recorded %q", l, want[i+j])
		}
	}
	return "lines match but not as one block"
}
