package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles the command into the test's own temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "futureprof")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlightFlagRefusesOutOfRange: a negative -flight and one above the
// runtime's bound exit 1 with a message naming the flag instead of crashing;
// an in-range one reports on the flight window.
func TestFlightFlagRefusesOutOfRange(t *testing.T) {
	bin := build(t)
	for _, size := range []string{"-5", "4611686018427387905"} {
		out, err := exec.Command(bin, "-flight", size).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "futureprof: -flight "+size) {
			t.Errorf("-flight %s: %v, output:\n%s\nwant exit 1 and a message", size, err, out)
		}
	}
	out, err := exec.Command(bin, "-flight", "4096", "-n", "12", "-trials", "1").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "flight window (4096 events/worker)") {
		t.Errorf("-flight 4096: %v, output:\n%s", err, out)
	}
}
