package shard

// Accessors only the tests use.

import "futurelocality/internal/runtime"

// Closed reports whether Shutdown has begun.
func (p *Pool) Closed() bool { return p.closed.Load() }

// SubmitWait is Submit with queueing backpressure: a saturated pool first
// tries the overflow exchange, then blocks on the home shard until a slot
// frees there. Saturation never sheds here; the only error — and the only
// path that counts against the pool's shed gauge — is a pool that closes
// out from under the caller (ErrClosed).
func SubmitWait[T any](p *Pool, fn func(*runtime.W) T) (runtime.Job[T], error) {
	return route(p, p.leastLoaded(-1), fn, true)
}
