//go:build !invariants

package runtime

// checkRefs is the invariants build's check of a job root's reference count
// (invariants.go). The default build checks nothing, and the empty call
// inlines away.
func checkRefs(*jobState, int64) {}

// checkInflight is the invariants build's range check of the admission word
// (invariants.go); the default build's call inlines away.
func checkInflight(*Runtime, int64) {}
