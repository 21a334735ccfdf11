package profile

import (
	"sync"
	"sync/atomic"
)

// chunkSize is the event capacity of one log chunk. At 48 bytes per event a
// chunk is ~192 KiB; a worker seals one only every chunkSize events, so the
// chunk-list mutex is touched O(events/chunkSize) times.
const chunkSize = 4096

// chunk is an append-only block of events. The owning worker writes
// buf[i] with a plain store and then publishes i+1 through n (an atomic
// release store); readers acquire-load n and may read exactly buf[:n],
// which the writer never modifies again. That pair of operations is the
// entire per-event synchronization — no locks, no CAS.
type chunk struct {
	n   atomic.Int32
	buf [chunkSize]Event
}

// eventLog is a single-writer, multi-reader event log: a list of chunks of
// which only the last is actively written. The mutex guards the chunk list
// (taken by the writer once per chunkSize events, and by readers during
// collection), never the per-event hot path.
type eventLog struct {
	mu     sync.Mutex
	chunks []*chunk
	cur    *chunk // owner-only shortcut to the last chunk
}

func newEventLog() *eventLog {
	c := &chunk{}
	return &eventLog{chunks: []*chunk{c}, cur: c}
}

// record appends ev. Only the owning writer may call it.
func (l *eventLog) record(ev Event) {
	c := l.cur
	i := int(c.n.Load()) // single writer: this is our own last store
	if i == chunkSize {
		nc := &chunk{}
		l.mu.Lock()
		l.chunks = append(l.chunks, nc)
		l.mu.Unlock()
		l.cur = nc
		c, i = nc, 0
	}
	c.buf[i] = ev
	c.n.Store(int32(i + 1))
}

// snapshot copies the published events, in record order.
func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	chunks := make([]*chunk, len(l.chunks))
	copy(chunks, l.chunks)
	l.mu.Unlock()
	var out []Event
	for _, c := range chunks {
		k := int(c.n.Load())
		out = append(out, c.buf[:k]...)
	}
	return out
}

// Recorder is one profiling session's event sink: one single-writer log per
// worker plus a mutex-serialized log for external goroutines (code calling
// the runtime with a nil worker, e.g. the Run entry point).
//
// The runtime holds an atomic pointer to the active Recorder; a nil pointer
// means profiling is off and recording costs exactly that one atomic load.
// Stopping swaps the pointer to nil and collects; events from workers still
// mid-record at the swap may land in the dead session and are dropped —
// the boundary of a profiling window is inherently racy, and the
// reconstructor tolerates truncated traces.
type Recorder struct {
	logs  []*eventLog
	extMu sync.Mutex
	ext   *eventLog
}

// NewRecorder returns a Recorder for the given worker count.
func NewRecorder(workers int) *Recorder {
	r := &Recorder{ext: newEventLog()}
	for i := 0; i < workers; i++ {
		r.logs = append(r.logs, newEventLog())
	}
	return r
}

// Record appends ev to worker's log. Only that worker may call it.
func (r *Recorder) Record(worker int, ev Event) {
	ev.Worker = int32(worker)
	r.logs[worker].record(ev)
}

// RecordExternal appends ev on behalf of a non-worker goroutine.
func (r *Recorder) RecordExternal(ev Event) {
	ev.Worker = -1
	r.extMu.Lock()
	r.ext.record(ev)
	r.extMu.Unlock()
}

// Collect snapshots the session into a Trace.
func (r *Recorder) Collect() *Trace {
	t := &Trace{}
	for _, l := range r.logs {
		t.PerWorker = append(t.PerWorker, l.snapshot())
	}
	r.extMu.Lock()
	t.External = r.ext.snapshot()
	r.extMu.Unlock()
	return t
}

// Trace is the collected event log of one profiling session. Each per-worker
// slice is that worker's events in chronological (program) order; External
// holds events from non-worker goroutines in their serialized order.
type Trace struct {
	PerWorker [][]Event
	External  []Event
}

// Len returns the total event count.
func (t *Trace) Len() int {
	n := len(t.External)
	for _, evs := range t.PerWorker {
		n += len(evs)
	}
	return n
}

// logs returns the per-worker logs followed by the external one: the order
// reconstruction reads a trace in.
func (t *Trace) logs() [][]Event {
	return append(t.PerWorker[:len(t.PerWorker):len(t.PerWorker)], t.External)
}

// Workers returns the worker count of the traced runtime.
func (t *Trace) Workers() int { return len(t.PerWorker) }

// Events returns all events: each worker's log in order, then the external
// log. Within one log the order is the recording order; across logs no
// global order is implied (reconstruction relies only on per-task program
// order and touch causality, not on a global clock).
func (t *Trace) Events() []Event {
	out := make([]Event, 0, t.Len())
	for _, evs := range t.PerWorker {
		out = append(out, evs...)
	}
	out = append(out, t.External...)
	return out
}
