package profile

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// chunkSize is the event capacity of one chunk of a session log. At 48 bytes
// per event a chunk is ~192 KiB; a worker seals one only every chunkSize
// events, so the chunk-list mutex is touched O(events/chunkSize) times.
const chunkSize = 4096

// windowChunks is the number of chunks a bounded log cycles through, each of
// window/4 events: the four sealed ones hold the last window events while the
// fifth is written, so a window costs 1.25× its events in memory.
const windowChunks = 5

// chunk is a block of events. The owning worker writes buf[i] with a plain
// store and then publishes i+1 through n (an atomic release store); readers
// acquire-load n and may read exactly buf[:n], which the writer does not touch
// again until it recycles the chunk under the log's mutex. That pair of
// operations is the entire per-event synchronization — no locks, no CAS.
type chunk struct {
	n   atomic.Int32
	buf []Event
	_   [32]byte // a cache line to itself: n is stored on every event
}

// eventLog is a single-writer, multi-reader event log: a list of chunks,
// oldest first, of which only the last is being written. A session log
// (keep 0) grows a chunk at a time; a window log (keep > 0) owns a fixed set
// of chunks and recycles the oldest. The mutex guards the list and every
// recycling: the writer takes it once per chunk, and a reader holds it while
// it copies the log, so no chunk is rewritten under a reader and a writer
// waits at most once per chunk, behind one reader's copy of one log.
type eventLog struct {
	mu     sync.Mutex
	chunks []*chunk
	cur    *chunk // owner-only shortcut to the last chunk
	keep   int    // events a snapshot keeps, the newest (0 = all)
}

func newEventLog(window int) *eventLog {
	l := &eventLog{keep: window}
	if window == 0 {
		l.chunks = []*chunk{{buf: make([]Event, chunkSize)}}
	} else {
		size := max(window/(windowChunks-1), 1)
		buf := make([]Event, windowChunks*size)
		for i := range windowChunks {
			l.chunks = append(l.chunks, &chunk{buf: buf[i*size : (i+1)*size]})
		}
	}
	l.cur = l.chunks[len(l.chunks)-1]
	return l
}

// record appends ev. Only the owning writer may call it.
func (l *eventLog) record(ev Event) {
	c := l.cur
	i := int(c.n.Load()) // single writer: this is our own last store
	if i == len(c.buf) {
		c, i = l.next(), 0
	}
	c.buf[i] = ev
	c.n.Store(int32(i + 1))
}

// next seals the current chunk and returns the one to write next: a new one
// for a session log, the oldest one, emptied, for a window.
func (l *eventLog) next() *chunk {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.keep == 0 {
		l.chunks = append(l.chunks, &chunk{buf: make([]Event, chunkSize)})
	} else {
		oldest := l.chunks[0]
		copy(l.chunks, l.chunks[1:])
		l.chunks[len(l.chunks)-1] = oldest
		oldest.n.Store(0)
	}
	l.cur = l.chunks[len(l.chunks)-1]
	return l.cur
}

// snapshot copies the published events in record order: all of a session's,
// the newest keep of a window's.
func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, c := range l.chunks {
		out = append(out, c.buf[:c.n.Load()]...)
	}
	if l.keep > 0 && len(out) > l.keep {
		out = out[len(out)-l.keep:]
	}
	return out
}

// Recorder is the runtime's event sink: one single-writer log per worker plus
// a mutex-serialized log for external goroutines (code calling the runtime
// with a nil worker, e.g. the Run entry point). It serves two purposes:
//
//   - a profiling session (window 0): every log keeps all its events. The
//     runtime holds an atomic pointer to the active session; a nil pointer
//     means profiling is off and recording costs exactly that one atomic
//     load. Stopping swaps the pointer to nil and collects; events from
//     workers still mid-record at the swap may land in the dead session and
//     are dropped — the boundary of a profiling window is inherently racy,
//     and the reconstructor tolerates truncated traces.
//   - a flight recorder (window > 0): every log keeps its last window events
//     in memory allocated once, at construction, and Collect returns that
//     recent window at any moment without stopping anything.
type Recorder struct {
	logs  []*eventLog
	extMu sync.Mutex
	ext   *eventLog
}

// NewRecorder returns a Recorder for the given worker count whose logs keep
// every event (window 0) or their last window events, rounded up to a power of
// two.
func NewRecorder(workers, window int) *Recorder {
	window = max(window, 0)
	if window&(window-1) != 0 {
		window = 1 << bits.Len(uint(window))
	}
	r := &Recorder{ext: newEventLog(window)}
	for range workers {
		r.logs = append(r.logs, newEventLog(window))
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

// Collect copies the logs into a Trace, one log at a time; the workers keep
// recording meanwhile.
func (r *Recorder) Collect() *Trace {
	t := &Trace{}
	for _, l := range r.logs {
		t.PerWorker = append(t.PerWorker, l.snapshot())
	}
	t.External = r.ext.snapshot()
	return t
}

// Trace is the collected event log of a profiling session or a flight window.
// Each per-worker slice is that worker's events in chronological (program)
// order; External holds events from non-worker goroutines in their serialized
// order.
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

// workers returns the worker count of the traced runtime.
func (t *Trace) workers() int { return len(t.PerWorker) }

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
