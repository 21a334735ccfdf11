//go:build invariants

package runtime

import (
	"strings"
	"testing"
)

// TestReleaseBelowZeroPanics: in the invariants build a release that takes a
// root's references below zero stops there, naming the invariant.
func TestReleaseBelowZeroPanics(t *testing.T) {
	var js jobState
	js.refs.Store(1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated: job root refs = -1") {
			t.Fatalf("release below zero: recovered %q", msg)
		}
	}()
	js.release(nil, 2)
}
