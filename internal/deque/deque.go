// Package deque provides the double-ended work queues used by the
// parsimonious work-stealing schedulers (Section 3): owners push and pop at
// the bottom, thieves steal from the top.
//
// Three implementations share the same access pattern:
//
//   - Seq: a plain slice deque for the deterministic scheduler simulator
//     (single goroutine, no synchronization).
//   - Ptr: the pointer-specialized lock-free growable deque of Chase & Lev
//     (SPAA '05) with the memory ordering of Lê et al. (PPoPP '13) — no
//     per-push boxing, top/bottom on separate cache lines. This is the
//     real runtime's worker deque.
//   - Locked: a mutex-protected deque — the linearizability oracle every
//     Ptr test compares against, and the runtime's global injection queue.
package deque

// Seq is an unsynchronized deque for single-goroutine simulation.
// The zero value is ready to use.
type Seq[T any] struct {
	items []T
}

// PushBottom appends v at the bottom (owner end).
func (d *Seq[T]) PushBottom(v T) { d.items = append(d.items, v) }

// PopBottom removes and returns the bottom item; ok is false when empty.
func (d *Seq[T]) PopBottom() (v T, ok bool) {
	if len(d.items) == 0 {
		return v, false
	}
	v = d.items[len(d.items)-1]
	var zero T
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	return v, true
}

// StealTop removes and returns the top item (thief end); ok is false when
// empty.
func (d *Seq[T]) StealTop() (v T, ok bool) {
	if len(d.items) == 0 {
		return v, false
	}
	v = d.items[0]
	// Shift; simulator deques are short-lived and small, and determinism
	// matters more than asymptotics here. A ring would also work.
	copy(d.items, d.items[1:])
	var zero T
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	return v, true
}

// PeekBottom returns the bottom item without removing it.
func (d *Seq[T]) PeekBottom() (v T, ok bool) {
	if len(d.items) == 0 {
		return v, false
	}
	return d.items[len(d.items)-1], true
}

// Len returns the number of queued items.
func (d *Seq[T]) Len() int { return len(d.items) }

// Reset empties the deque, retaining capacity.
func (d *Seq[T]) Reset() {
	clear(d.items)
	d.items = d.items[:0]
}

// Snapshot returns a copy of the contents, top first. For tests and tracing.
func (d *Seq[T]) Snapshot() []T {
	out := make([]T, len(d.items))
	copy(out, d.items)
	return out
}
