package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/figreg"
)

// build compiles the command into the test's own temporary directory (the
// go build cache makes the second test's build a copy).
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "futuresim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGraphFlagIsWriteDOT: `futuresim -fig <name> -graph -` prints, for every
// registered figure, exactly the bytes dag.WriteDOT gives for that figure's
// graph — what the retired dagviz command printed — and nothing else.
func TestGraphFlagIsWriteDOT(t *testing.T) {
	bin := build(t)
	for _, name := range figreg.Names() {
		inst, err := figreg.Build(name, figreg.Spec{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := dag.WriteDOT(&want, inst.Graph, inst.Name); err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command(bin, "-fig", name, "-graph", "-").Output()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: -graph - printed %d bytes, dag.WriteDOT %d", name, len(got), want.Len())
		}
	}
}

// TestEveryOutputInOneRun: the analysis, the chain decomposition, the CSV and
// both DOT files from one invocation; the three that describe a run describe
// the same one (the proof schedule here, so exactly one steal).
func TestEveryOutputInOneRun(t *testing.T) {
	bin, dir := build(t), t.TempDir()
	csv, dot := filepath.Join(dir, "run.csv"), filepath.Join(dir, "run.dot")
	out, err := exec.Command(bin, "-fig", "fig6a", "-k", "4", "-adversary", "-chains",
		"-csv", csv, "-dot", dot).Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"class:", "deviations:", "chains:      steals=1 ", "trace csv:", "trace dot:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	rows, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := figreg.Build("fig6a", figreg.Spec{K: 4})
	if n := bytes.Count(rows, []byte("\n")); n != inst.Graph.Len()+1 {
		t.Errorf("csv has %d lines, want a header and %d nodes", n, inst.Graph.Len())
	}
	if b, err := os.ReadFile(dot); err != nil || !bytes.Contains(b, []byte("color=red")) {
		t.Errorf("execution DOT marks no deviated node (%v)", err)
	}
}
