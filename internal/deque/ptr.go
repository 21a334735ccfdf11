package deque

import "sync/atomic"

// cacheLineBytes is the padding unit keeping fields that different cores
// write on separate cache lines (64 bytes on amd64 and arm64).
const cacheLineBytes = 64

// Ptr is a pointer-specialized, lock-free, growable Chase–Lev work-stealing
// deque: the owner pushes and pops *T at the bottom, thieves steal from the
// top. It is the runtime's hot-path deque and differs from a textbook
// generic Chase–Lev deque in two ways that matter there:
//
//   - slots hold the pointers directly in atomic.Pointer[T] slots — no
//     per-push boxing allocation (a deque of arbitrary values must box
//     each one to publish it atomically, one short-lived heap object per
//     push);
//   - top and bottom live on separate cache lines, so thieves hammering top
//     with CAS do not invalidate the owner's line holding bottom (and vice
//     versa) — the false-sharing half of the paper's cache-locality story
//     applied to the scheduler's own metadata.
//
// nil is reserved as the "slot not yet published" sentinel for the
// grow-race reload in StealTop, so PushBottom(nil) panics.
//
// The orderings follow Lê, Pop, Cohen & Zappa Nardelli, "Correct and
// Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013), mapped onto
// Go's sync/atomic operations. Go's atomics are sequentially consistent —
// strictly stronger than the C11 orderings the paper requires — so every
// fence in their listing is subsumed; the structural points their audit
// flags (buffer load ordered after the bottom store in PopBottom, slot
// reload after a won CAS in StealTop) are kept and called out inline.
type Ptr[T any] struct {
	top atomic.Int64
	_   [cacheLineBytes - 8]byte
	// bottom is owner-written; its own line keeps thief CAS traffic on top
	// from bouncing it.
	bottom atomic.Int64
	_      [cacheLineBytes - 8]byte
	buf    atomic.Pointer[ptrBuffer[T]]
}

type ptrBuffer[T any] struct {
	mask  int64
	slots []atomic.Pointer[T]
}

func newPtrBuffer[T any](capacity int64) *ptrBuffer[T] {
	return &ptrBuffer[T]{mask: capacity - 1, slots: make([]atomic.Pointer[T], capacity)}
}

func (b *ptrBuffer[T]) load(i int64) *T     { return b.slots[i&b.mask].Load() }
func (b *ptrBuffer[T]) store(i int64, v *T) { b.slots[i&b.mask].Store(v) }

// NewPtr returns a deque with the given initial capacity (rounded up to a
// power of two, minimum 8).
func NewPtr[T any](capacity int) *Ptr[T] {
	c := int64(8)
	for c < int64(capacity) {
		c <<= 1
	}
	d := &Ptr[T]{}
	d.buf.Store(newPtrBuffer[T](c))
	return d
}

// PushBottom appends v at the owner end. Owner-only. v must be non-nil
// (nil is the unpublished-slot sentinel).
func (d *Ptr[T]) PushBottom(v *T) {
	if v == nil {
		panic("deque: Ptr.PushBottom(nil)")
	}
	b := d.bottom.Load()
	t := d.top.Load()
	buf := d.buf.Load()
	if b-t >= int64(len(buf.slots)) {
		buf = d.grow(buf, b, t)
	}
	// The slot store is sequenced before the bottom publication (seq-cst
	// program order), so a thief that observes bottom > b also observes the
	// slot — Lê et al.'s release store on bottom.
	buf.store(b, v)
	d.bottom.Store(b + 1)
}

// grow doubles the buffer, copying the live window [t, b), and publishes it
// only after the copy — so a thief that loads the new buffer always finds
// its slot populated. Owner-only (called from PushBottom).
func (d *Ptr[T]) grow(old *ptrBuffer[T], b, t int64) *ptrBuffer[T] {
	nbuf := newPtrBuffer[T](int64(len(old.slots)) * 2)
	for i := t; i < b; i++ {
		nbuf.store(i, old.load(i))
	}
	d.buf.Store(nbuf)
	return nbuf
}

// PopBottom removes and returns the item at the owner end. Owner-only.
func (d *Ptr[T]) PopBottom() (v *T, ok bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	// Load the buffer only after the bottom store, matching Lê et al.'s
	// PopBottom, where the buffer read sits after the store+fence. Only the
	// owner ever stores buf, so for this Go mapping the order is an audit
	// artifact rather than a correctness fix — but it keeps the code
	// line-for-line diffable against the paper's listing.
	buf := d.buf.Load()
	t := d.top.Load()
	switch {
	case t > b:
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil, false
	case t == b:
		// Last element: race with thieves via CAS on top.
		if !d.top.CompareAndSwap(t, t+1) {
			// Lost the race.
			d.bottom.Store(b + 1)
			return nil, false
		}
		d.bottom.Store(b + 1)
		v = buf.load(b)
		buf.store(b, nil)
		return v, true
	default:
		v = buf.load(b)
		// Clear the consumed slot so the buffer does not pin completed
		// tasks (and everything their closures capture) until the ring
		// wraps. Owner-only clearing is deliberate: once our top load (or
		// won CAS) sequenced above, no thief's bottom check can still admit
		// index b, so nobody concurrently reads this slot — whereas a
		// thief clearing after StealTop would race the owner re-publishing
		// index t+capacity into the same ring slot.
		buf.store(b, nil)
		return v, true
	}
}

// PopBottomIf pops the bottom item only if it is v, and reports whether it
// did. Owner-only. It lets an owner that is about to run v directly take v
// off the deque first, so the deque holds live work only.
//
// The peek reads the slot below bottom without consulting top, so on an
// empty deque it can see a stale pointer (thieves never clear the slots they
// take). That is harmless: only the owner stores bottom or publishes slots,
// so between the peek and the PopBottom the index bottom-1 still names the
// same slot — PopBottom either delivers exactly that slot's v, or finds the
// index already claimed by a thief and fails.
func (d *Ptr[T]) PopBottomIf(v *T) bool {
	if d.PeekBottom() != v {
		return false
	}
	_, ok := d.PopBottom()
	return ok
}

// PeekBottom returns the item a PopBottom would deliver next, without
// removing it, or nil when the deque looks empty. Owner-only. It lets the
// owner look at its bottom entry before deciding to pop it — for instance to
// drop entries whose work is already done.
//
// With a single item left a thief may take it between the peek and the pop;
// the PopBottom then fails, it never delivers a different item (see
// PopBottomIf: only the owner moves bottom or publishes slots). The top load
// only spares the caller a stale pointer from an empty deque.
func (d *Ptr[T]) PeekBottom() *T {
	b := d.bottom.Load() - 1
	if d.top.Load() > b {
		return nil
	}
	return d.buf.Load().load(b)
}

// StealTop removes and returns the item at the thief end. Any goroutine.
// ok is false when the deque is empty or the steal lost a race (callers
// treat both as "try elsewhere").
func (d *Ptr[T]) StealTop() (v *T, ok bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	buf := d.buf.Load()
	p := buf.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	if p == nil {
		// The slot was published only to a newer buffer (we raced a grow):
		// reload through the current buffer pointer. The won CAS on top
		// means index t belongs to us, and grow publishes the new buffer
		// only after copying the live window, so this read is populated.
		p = d.buf.Load().load(t)
	}
	return p, true
}

// StealN steals up to len(out) items from the top into out, returning how
// many were taken; out[:n] holds them oldest (shallowest) first. Any
// goroutine. It stops early when the deque runs dry or another thief (or
// the owner's last-item CAS) wins a race — like StealTop, a short count
// means "try elsewhere", not "empty".
//
// Each item is claimed by its own top CAS, exactly the StealTop protocol.
// That is deliberate, not a missed optimization: a single bulk CAS
// advancing top by k is unsound against Chase–Lev's PopBottom, which
// guards only the *last* remaining item with a CAS — interior pops are a
// plain bottom decrement, so an owner draining the deque between the
// thief's bottom read and its bulk claim would re-execute (or strand)
// every claimed item below the crossing point. The bulk win is amortizing
// the victim probe and the call overhead across a batch, not eliding the
// per-item CAS.
//
// No scheduler calls it: the runtime's thief takes one task per visit, and
// batch stealing lives in the simulator. It stays only because bench/ladder.go
// times it (deque.ptr_stealn_ns_per_item) and bench/ is frozen outside
// benchmark PRs; the next one of those removes the rung and this with it.
func (d *Ptr[T]) StealN(out []*T) int {
	n := 0
	for n < len(out) {
		v, ok := d.StealTop()
		if !ok {
			break
		}
		out[n] = v
		n++
	}
	return n
}

// Cap returns the ring's current capacity. The ring only grows, so this is
// the deque's high-water depth rounded up to a power of two.
func (d *Ptr[T]) Cap() int { return len(d.buf.Load().slots) }

// Len returns a point-in-time size estimate (may be stale under concurrency).
func (d *Ptr[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
