//go:build invariants

package runtime

import "fmt"

// checkRefs panics when a release has taken a job root's liveness
// references below zero: a reference returned twice, or to the wrong job.
// Unchecked, such a root never recycles and the program hangs where it waits
// for it; checked, it stops at the release that broke the count. Built with
// -tags invariants only (invariants_off.go is the default build's).
func checkRefs(js *jobState, refs int64) {
	if refs < 0 {
		panic(fmt.Sprintf("runtime: invariant violated: job root refs = %d after a release (root generation %d)",
			refs, js.gen.Load()))
	}
}

// checkInflight panics when the admission word leaves its range after an
// admit or a finish: below zero (a slot returned twice) or above the cap (an
// admission the cap did not allow). Uncapped, only the lower bound holds.
func checkInflight(rt *Runtime, n int64) {
	if n < 0 || (rt.maxInFlight > 0 && n > int64(rt.maxInFlight)) {
		panic(fmt.Sprintf("runtime: invariant violated: inflight = %d after an admit or a finish (cap %d, 0 = none)",
			n, rt.maxInFlight))
	}
}
