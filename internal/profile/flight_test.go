package profile

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/core"
	"futurelocality/internal/dag"
)

// TestFlightWindow: a log with a window of n holds exactly the last n events
// after overflow, oldest first.
func TestFlightWindow(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 1; i <= 20; i++ {
		r.Record(0, Event{Kind: KindBegin, Task: uint64(i), Arg: -1})
	}
	got := r.Collect().PerWorker[0]
	if len(got) != 8 {
		t.Fatalf("window holds %d events, want 8", len(got))
	}
	for i, ev := range got {
		if want := uint64(13 + i); ev.Task != want {
			t.Errorf("window[%d].Task = %d, want %d", i, ev.Task, want)
		}
		if ev.Worker != 0 {
			t.Errorf("window[%d].Worker = %d, want 0", i, ev.Worker)
		}
	}
}

// TestFlightSizeRounding: windows round up to powers of two; a window of 0
// keeps every event.
func TestFlightSizeRounding(t *testing.T) {
	for _, tc := range []struct{ window, want int }{
		{5000, 8192}, {1024, 1024}, {3, 4}, {1, 1}, {0, 3 * 8192},
	} {
		r := NewRecorder(1, tc.window)
		for i := 0; i < 3*8192; i++ {
			r.Record(0, Event{Kind: KindBegin, Task: uint64(i + 1), Arg: -1})
		}
		if got := len(r.Collect().PerWorker[0]); got != tc.want {
			t.Errorf("window %d keeps %d events, want %d", tc.window, got, tc.want)
		}
	}
}

// TestFlightExternalRing: external events land in the trailing log, stamped
// Worker -1, and are safe from concurrent callers.
func TestFlightExternalRing(t *testing.T) {
	r := NewRecorder(2, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r.RecordExternal(Event{Kind: KindSpawn, Other: 1, Arg: -1})
			}
		}()
	}
	wg.Wait()
	tr := r.Collect()
	if len(tr.External) != 40 {
		t.Fatalf("external log holds %d events, want 40", len(tr.External))
	}
	for _, ev := range tr.External {
		if ev.Worker != -1 {
			t.Fatalf("external event Worker = %d, want -1", ev.Worker)
		}
	}
	if len(tr.PerWorker) != 2 {
		t.Fatalf("trace has %d worker logs, want 2", len(tr.PerWorker))
	}
}

// TestFlightConcurrentCollect hammers a 16-event window — chunks of 4, one
// recycled every 4 events — from its writer while three readers Collect
// continuously. Every collected window must be gap-free and in order: the
// events the writer recorded last, consecutive task IDs, exactly 16 of them
// once 16 were written. The -race build checks the protocol: a reader copies
// under the log's mutex, and the writer recycles a chunk only under it.
func TestFlightConcurrentCollect(t *testing.T) {
	r := NewRecorder(1, 16)
	const writes = 200000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got := r.Collect().PerWorker[0]
				if len(got) == 0 {
					continue
				}
				last := got[len(got)-1].Task
				if want := min(last, 16); uint64(len(got)) != want {
					t.Errorf("window ending at task %d holds %d events, want %d", last, len(got), want)
					return
				}
				for i, ev := range got {
					if want := last - uint64(len(got)-1-i); ev.Task != want || ev.Other != want {
						t.Errorf("window[%d] = %+v, want task %d: a gap or a torn event", i, ev, want)
						return
					}
				}
			}
		}()
	}
	for i := uint64(1); i <= writes; i++ {
		r.Record(0, Event{Kind: KindSpawn, Task: i, Other: i, Arg: -1})
	}
	stop.Store(true)
	wg.Wait()
}

// TestFlightReconstructs: a flight window — even one whose front was
// overwritten mid-computation — reconstructs through the standard stack.
func TestFlightReconstructs(t *testing.T) {
	r := NewRecorder(1, 16) // small: guarantees truncation below
	// Simulate a worker running a chain of spawn+begin+end triples; only the
	// tail survives the window.
	for i := uint64(1); i <= 20; i++ {
		r.Record(0, Event{Kind: KindSpawn, Task: 0, Other: i, Arg: -1, Disc: dag.ParentFirst})
		r.Record(0, Event{Kind: KindBegin, Task: i, Arg: -1})
		r.Record(0, Event{Kind: KindEnd, Task: i, Arg: -1})
	}
	tr := r.Collect()
	rec, err := Reconstruct(tr)
	if err != nil {
		t.Fatalf("Reconstruct(flight window): %v", err)
	}
	if len(rec.Tasks) < 2 {
		t.Fatalf("reconstructed %d tasks from the window, want several", len(rec.Tasks))
	}
	if tr.Len() != 16 {
		t.Errorf("window holds %d events, want 16", tr.Len())
	}
	env, err := WindowReading(tr, 2)
	if err != nil {
		t.Fatalf("WindowReading: %v", err)
	}
	if len(env.Recon.Tasks) != len(rec.Tasks) {
		t.Errorf("window reading has %d tasks, want the reconstruction's %d", len(env.Recon.Tasks), len(rec.Tasks))
	}
	if want := core.Budget(env.Class, dag.FutureFirst, 2, env.Span, 0); env.DeviationBound != want.DeviationBound {
		t.Errorf("window budget = %d, want %d for P = 2", env.DeviationBound, want.DeviationBound)
	}
	if env.String() == "" {
		t.Error("empty reading rendering")
	}
}

// Task returns the table entry of task id, and whether the trace observed it.
func (r *Recon) Task(id uint64) (TaskInfo, bool) {
	i, ok := slices.BinarySearchFunc(r.Tasks, id, func(t TaskInfo, id uint64) int { return cmp.Compare(t.ID, id) })
	if !ok {
		return TaskInfo{}, false
	}
	return r.Tasks[i], true
}
