package deque

import (
	"sync"
	"sync/atomic"
)

// Locked is a mutex-protected deque with the same owner/thief API as Ptr.
// It serves as the linearizability oracle in stress tests and as the
// runtime's global injection queue. The size is mirrored in an atomic
// counter so Len is a single load — cheap enough for placement heuristics
// (the shard router's least-loaded tiebreak) to call on every decision
// without touching the lock.
type Locked[T any] struct {
	mu    sync.Mutex
	size  atomic.Int64
	items []T
}

// PushBottom appends v at the owner end.
func (d *Locked[T]) PushBottom(v T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.size.Store(int64(len(d.items)))
	d.mu.Unlock()
}

// PushBottomN appends every element of xs at the owner end under one lock
// acquisition — the batch-submission fast path, which would otherwise pay a
// lock round-trip per task.
func (d *Locked[T]) PushBottomN(xs []T) {
	if len(xs) == 0 {
		return
	}
	d.mu.Lock()
	d.items = append(d.items, xs...)
	d.size.Store(int64(len(d.items)))
	d.mu.Unlock()
}

// StealTop removes and returns the thief-end item.
func (d *Locked[T]) StealTop() (v T, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return v, false
	}
	v = d.items[0]
	copy(d.items, d.items[1:])
	var zero T
	d.items[len(d.items)-1] = zero
	d.items = d.items[:len(d.items)-1]
	d.size.Store(int64(len(d.items)))
	return v, true
}

// Len returns the current size without taking the lock: one atomic load,
// updated under the lock by every mutation. The value is a snapshot — it
// may be stale by the time the caller acts on it, which is exactly the
// contract load-balancing heuristics want.
func (d *Locked[T]) Len() int {
	return int(d.size.Load())
}
