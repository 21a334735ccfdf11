package profile

// Flight recorder: the always-on sibling of the start/stop profiling
// session. Each worker owns a fixed-size ring that records its scheduling
// events continuously — old events are overwritten, memory never grows —
// and Collect reconstructs whatever window the rings currently hold into a
// Trace at any moment, with no start/stop ceremony. That is the aviation
// use case transplanted: when a latency spike lands, the recent past is
// already recorded; nobody had to know in advance to press record.
//
// The write protocol differs deliberately from the session recorder's
// chunked log. A chunk log's plain-store/atomic-length pair is safe because
// readers only read below the published length — but a ring's writer wraps
// and overwrites slots a reader may be mid-read, so every slot word here is
// atomic and guarded by a per-slot sequence:
//
//	writer (single, the owning worker):    reader (any goroutine, lock-free):
//	  seq.Store(0)          // invalidate    q := seq.Load()
//	  w[0..4].Store(...)    // payload       read w[0..4]
//	  seq.Store(pos+1)      // publish       if seq.Load() != q or q != want: skip
//
// A reader that races a wrap sees seq 0 (mid-write) or a different
// position's sequence, and drops the slot — torn events are discarded, not
// misread. Collect therefore returns a best-effort recent window: per ring
// at most its capacity, minus any the writer lapped during the scan. The
// reconstructor tolerates exactly this shape (front-truncated traces
// degrade to Incomplete notes, not errors).
//
// Cost per recorded event: seven uncontended atomic stores into owner-local
// memory — heavier than a session append (one plain store + one atomic),
// which is why the runtime makes the flight recorder an explicit option
// rather than unconditional, and why the payload is packed into five words
// instead of storing the 48-byte Event through a lock.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"futurelocality/internal/policy"
)

// flightWords is the packed width of one event (see packEvent).
const flightWords = 5

// flightSlot is one ring entry: a sequence word (0 = being written,
// pos+1 = the 1-based write position the payload belongs to) and the packed
// event payload.
type flightSlot struct {
	seq atomic.Uint64
	w   [flightWords]atomic.Uint64
}

// flightRing is one single-writer ring. pos counts events ever written
// (monotone; pos mod len(slots) is the next slot).
type flightRing struct {
	pos   atomic.Uint64
	_     [56]byte // keep the hot write cursor off the first slots' line
	slots []flightSlot
	mask  uint64
}

// record appends ev. Only the ring's owner may call it (the external ring
// is serialized by Flight.extMu).
func (r *flightRing) record(ev Event) {
	p := r.pos.Load() // single writer: our own last store
	s := &r.slots[p&r.mask]
	s.seq.Store(0)
	var w [flightWords]uint64
	packEvent(&ev, &w)
	for i := range w {
		s.w[i].Store(w[i])
	}
	s.seq.Store(p + 1)
	r.pos.Store(p + 1)
}

// snapshot reads the ring's current window, oldest first, skipping slots
// torn by a racing writer. worker is the Event.Worker to stamp (-1 for the
// external ring).
func (r *flightRing) snapshot(worker int32) []Event {
	p := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if p > n {
		start = p - n
	}
	out := make([]Event, 0, p-start)
	for q := start; q < p; q++ {
		s := &r.slots[q&r.mask]
		if s.seq.Load() != q+1 {
			continue // overwritten past us, or mid-write
		}
		var w [flightWords]uint64
		for i := range w {
			w[i] = s.w[i].Load()
		}
		if s.seq.Load() != q+1 {
			continue // torn by a wrap during the read
		}
		ev := unpackEvent(&w)
		ev.Worker = worker
		out = append(out, ev)
	}
	return out
}

// packEvent packs ev into five words. Worker is NOT packed — it is implied
// by which ring the event sits in and re-stamped on read.
//
//	w0: Kind | Mode<<8 | Disc<<16 | Steal<<24 | uint32(Arg)<<32
//	w1: Task    w2: Other    w3: Job    w4: uint32(N) | Cross<<32
func packEvent(ev *Event, w *[flightWords]uint64) {
	w[0] = uint64(ev.Kind) | uint64(ev.Mode)<<8 | uint64(ev.Disc)<<16 |
		uint64(ev.Steal)<<24 | uint64(uint32(ev.Arg))<<32
	w[1] = ev.Task
	w[2] = ev.Other
	w[3] = ev.Job
	w[4] = uint64(uint32(ev.N))
	if ev.Cross {
		w[4] |= 1 << 32
	}
}

// unpackEvent is packEvent's inverse (Worker left zero for the caller).
func unpackEvent(w *[flightWords]uint64) Event {
	return Event{
		Kind:  Kind(uint8(w[0])),
		Mode:  TouchMode(uint8(w[0] >> 8)),
		Disc:  policy.Discipline(uint8(w[0] >> 16)),
		Steal: policy.StealPolicy(uint8(w[0] >> 24)),
		Arg:   int32(uint32(w[0] >> 32)),
		Task:  w[1],
		Other: w[2],
		Job:   w[3],
		N:     int32(uint32(w[4])),
		Cross: w[4]&(1<<32) != 0,
	}
}

// Flight is the flight-recorder sink: one ring per worker plus a
// mutex-serialized ring for external goroutines. Safe for concurrent use:
// each worker writes only its own ring, Collect may run from any goroutine
// at any time.
type Flight struct {
	rings []flightRing
	extMu sync.Mutex
}

// NewFlight returns a Flight for the given worker count with a per-ring
// capacity of at least size events (rounded up to a power of two; size <= 0
// selects the 4096-event default — at 48 bytes per slot, ~256 KiB per
// worker).
func NewFlight(workers, size int) *Flight {
	if size <= 0 {
		size = 4096
	}
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	f := &Flight{rings: make([]flightRing, workers+1)}
	for i := range f.rings {
		f.rings[i].slots = make([]flightSlot, size)
		f.rings[i].mask = uint64(size) - 1
	}
	return f
}

// Workers returns the worker-ring count (excluding the external ring).
func (f *Flight) Workers() int { return len(f.rings) - 1 }

// Record appends ev to worker's ring. Only that worker may call it.
func (f *Flight) Record(worker int, ev Event) {
	f.rings[worker].record(ev)
}

// RecordExternal appends ev on behalf of a non-worker goroutine.
func (f *Flight) RecordExternal(ev Event) {
	f.extMu.Lock()
	f.rings[len(f.rings)-1].record(ev)
	f.extMu.Unlock()
}

// Collect snapshots the rings' current window into a Trace — the same shape
// a profiling session produces, so the whole analysis stack (Reconstruct,
// Analyze, SplitJobs) applies unchanged. The window is best-effort recent
// history: per ring the last events up to its capacity, front-truncated,
// with any slots the writers lapped mid-scan dropped.
func (f *Flight) Collect() *Trace {
	t := &Trace{}
	for i := 0; i < len(f.rings)-1; i++ {
		t.PerWorker = append(t.PerWorker, f.rings[i].snapshot(int32(i)))
	}
	t.External = f.rings[len(f.rings)-1].snapshot(-1)
	return t
}
