package shard

// Accessors only the tests use.

// Closed reports whether Shutdown has begun.
func (p *Pool) Closed() bool { return p.closed.Load() }
