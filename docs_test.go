package futurelocality_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// The documents that tell a reader what to run. bench/README.md is the
// benchmark's own manual and is checked by nobody here.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".github/workflows/ci.yml",
	".claude/skills/verify/SKILL.md",
}

// docPaths match the repository paths a document can tell a reader to run
// or open: cmd/<x>, scripts/<x> and internal/<x> with or without a leading
// "./", and ./examples/<x> and ./bench with one. The leading group keeps them off
// longer paths that merely end the same way (honnef.co/go/tools/cmd/...); a
// placeholder such as ./examples/<name> has no name to match.
var docPaths = []*regexp.Regexp{
	regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|scripts|internal)/[\w.-]+)`),
	regexp.MustCompile(`(?:^|[^\w/.-])\./(examples/\w+|bench\b)`),
}

// retiredNames are commands, files and API names that no longer exist; a
// document that still names one sends its reader to nothing.
var retiredNames = []string{
	"runtimebench", "BENCH_runtime", "go test -bench=.",
	"WithPlacement", "WithForwarding", "PlaceRoundRobin", "JobStats(",
	"WithStealPolicy",
	"ThreadTouches", "descendantsInto",
	"dagviz", "internal/trace",
	"Trials.Results", "CacheCostOf",
	"LLCKind",
	"StealHalf", "LastVictimAffinity", "StealBatchMax", "ParseSteal", "StealNames",
	"MaxStealBatch", "StealVisits", "NoJobs",
	"blockTable", "TestMissAccountsAgree", "cache.New(",
}

// retiredFlag matches a command line that passes a flag the command no longer
// has: futureprof's -steal went with the runtime's steal-policy option, its
// -cache with the in-engine caches a reconstructed DAG never touched.
var retiredFlag = regexp.MustCompile(`futureprof\b.*\s-(?:steal|cache)\b`)

// changeNumber matches a reference to a numbered change. DESIGN.md describes
// the tree as it is; what changed when is git log's and CHANGES.md's.
var changeNumber = regexp.MustCompile(`\bPR \d+`)

// TestDocsNameOnlyWhatExists fails when a document names a command, example,
// script or internal package that is not in the tree, or a retired one, or
// passes a retired flag — and when DESIGN.md dates itself.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			for _, re := range docPaths {
				for _, m := range re.FindAllStringSubmatch(line, -1) {
					path := strings.TrimRight(m[1], ".")
					if _, err := os.Stat(path); err != nil {
						t.Errorf("%s:%d names %s, which does not exist", doc, n+1, path)
					}
				}
			}
			for _, name := range retiredNames {
				if strings.Contains(line, name) {
					t.Errorf("%s:%d still mentions %q", doc, n+1, name)
				}
			}
			if m := retiredFlag.FindString(line); m != "" {
				t.Errorf("%s:%d still runs %q", doc, n+1, m)
			}
			if m := changeNumber.FindString(line); m != "" && doc == "DESIGN.md" {
				t.Errorf("%s:%d cites %q: history belongs to git log and CHANGES.md", doc, n+1, m)
			}
		}
	}
}
