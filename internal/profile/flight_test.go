package profile

import (
	"sync"
	"sync/atomic"
	"testing"

	"futurelocality/internal/policy"
)

// TestFlightPackRoundTrip: the five-word packing preserves every Event
// field the ring stores (Worker is re-stamped from the ring index).
func TestFlightPackRoundTrip(t *testing.T) {
	evs := []Event{
		{Kind: KindSpawn, Task: 7, Other: 8, Arg: -1, Disc: policy.FutureFirst, Job: 3},
		{Kind: KindTouch, Mode: ModeHelped, Task: 1 << 40, Other: 2, Arg: 17, N: 5, Job: 1 << 33},
		{Kind: KindSteal, Task: 9, Arg: -1, Steal: policy.Hierarchical, Cross: true},
		{Kind: KindYield, Task: 4, Arg: 2147483647},
		{Kind: KindEnd, Task: 12, Arg: -1},
	}
	for _, ev := range evs {
		var w [flightWords]uint64
		packEvent(&ev, &w)
		got := unpackEvent(&w)
		if got != ev {
			t.Errorf("round trip changed event:\n  in  %+v\n  out %+v", ev, got)
		}
	}
}

// TestFlightWindow: a ring of capacity n holds exactly the last n events
// after overflow, oldest first.
func TestFlightWindow(t *testing.T) {
	f := NewFlight(1, 8)
	if len(f.rings[0].slots) != 8 {
		t.Fatalf("Size = %d, want 8", len(f.rings[0].slots))
	}
	for i := 1; i <= 20; i++ {
		f.Record(0, Event{Kind: KindBegin, Task: uint64(i), Arg: -1})
	}
	tr := f.Collect()
	got := tr.PerWorker[0]
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

// TestFlightSizeRounding: capacities round up to powers of two; zero and
// negative select the default.
func TestFlightSizeRounding(t *testing.T) {
	if got := len(NewFlight(1, 5000).rings[0].slots); got != 8192 {
		t.Errorf("Size(5000) = %d, want 8192", got)
	}
	if got := len(NewFlight(1, 0).rings[0].slots); got != 4096 {
		t.Errorf("Size(0) = %d, want 4096", got)
	}
	if got := len(NewFlight(1, 1024).rings[0].slots); got != 1024 {
		t.Errorf("Size(1024) = %d, want 1024", got)
	}
}

// TestFlightExternalRing: external events land in the trailing ring,
// stamped Worker -1, and are safe from concurrent callers.
func TestFlightExternalRing(t *testing.T) {
	f := NewFlight(2, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				f.RecordExternal(Event{Kind: KindSpawn, Other: 1, Arg: -1})
			}
		}()
	}
	wg.Wait()
	tr := f.Collect()
	if len(tr.External) != 40 {
		t.Fatalf("external ring holds %d events, want 40", len(tr.External))
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

// TestFlightConcurrentCollect hammers one ring from its writer while
// readers Collect continuously: no torn events may surface (every collected
// event must be one the writer actually wrote), and the -race build proves
// the protocol clean. This is the seqlock property the per-slot sequence
// exists for.
func TestFlightConcurrentCollect(t *testing.T) {
	f := NewFlight(1, 64)
	const writes = 200000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tr := f.Collect()
				for _, ev := range tr.PerWorker[0] {
					// The writer only ever writes internally consistent
					// events: Task==Other==Job+1 by construction below.
					if ev.Other != ev.Task || ev.Job+1 != ev.Task {
						t.Errorf("torn event surfaced: %+v", ev)
						return
					}
				}
			}
		}()
	}
	for i := uint64(1); i <= writes; i++ {
		f.Record(0, Event{Kind: KindSpawn, Task: i, Other: i, Job: i - 1, Arg: -1})
	}
	stop.Store(true)
	wg.Wait()
}

// TestFlightReconstructs: a flight window — even one whose front was
// overwritten mid-computation — reconstructs through the standard stack.
func TestFlightReconstructs(t *testing.T) {
	f := NewFlight(1, 16) // small: guarantees truncation below
	// Simulate a worker running a chain of spawn+begin+end triples; only the
	// tail survives the ring.
	for i := uint64(1); i <= 20; i++ {
		f.Record(0, Event{Kind: KindSpawn, Task: 0, Other: i, Arg: -1, Disc: policy.ParentFirst})
		f.Record(0, Event{Kind: KindBegin, Task: i, Arg: -1})
		f.Record(0, Event{Kind: KindEnd, Task: i, Arg: -1})
	}
	tr := f.Collect()
	rec, err := Reconstruct(tr)
	if err != nil {
		t.Fatalf("Reconstruct(flight window): %v", err)
	}
	if len(rec.Tasks) < 2 {
		t.Fatalf("reconstructed %d tasks from the window, want several", len(rec.Tasks))
	}
	env, err := WindowEnvelope(tr, 2, policy.FutureFirst, policy.RandomSingle)
	if err != nil {
		t.Fatalf("WindowEnvelope: %v", err)
	}
	if env.Events != 16 {
		t.Errorf("envelope Events = %d, want 16", env.Events)
	}
	if env.P != 2 {
		t.Errorf("envelope P = %d, want 2", env.P)
	}
	if env.String() == "" {
		t.Error("empty envelope rendering")
	}
}
