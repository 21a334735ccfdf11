package futurelocality_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlag matches a -run flag of a go test command line and its pattern,
// quoted or not.
var runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)

// testFunc matches the declaration of a function go test runs.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// TestCIRunPatternsNameTests fails when an alternative of a -run pattern in
// the CI workflow matches no test, fuzz target or benchmark of the module: go
// test runs nothing for it and passes, so a renamed test silently drops out of
// the pass that was meant to repeat it. '^$', which selects nothing on
// purpose, is the one exception.
func TestCIRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := 0
	for n, line := range strings.Split(string(raw), "\n") {
		for _, m := range runFlag.FindAllStringSubmatch(line, -1) {
			pattern := m[1] + m[2] + m[3]
			if pattern == "^$" {
				continue
			}
			patterns++
			// A slash starts the subtest levels; the alternatives of the
			// top level name the functions.
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", n+1, alt, err)
					continue
				}
				if !matchesAny(re, names) {
					t.Errorf("ci.yml:%d: -run alternative %q matches no Test, Fuzz or Benchmark function", n+1, alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("ci.yml has no -run pattern: the search is broken")
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
