package profile_test

import (
	"encoding/binary"
	"runtime"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
)

// An event of a FuzzReconstruct input is eventBytes bytes: kind, mode, the
// log it is recorded in, a flag byte (discipline, and whether the three ids
// are spread over all 64 bits), task, other, job,
// then Arg and N as little-endian int32 — so the fuzzer reaches a negative or
// huge item index and helped count as easily as a small one, while ids stay in
// a space small enough for events to meet.
const (
	eventBytes = 16
	fuzzLogs   = 4 // worker logs; the log byte's fifth value is the external log
)

func wideID(b byte, wide bool) uint64 {
	if wide {
		return uint64(b) * 0x0101010101010101
	}
	return uint64(b)
}

func decodeTrace(data []byte) *profile.Trace {
	r := profile.NewRecorder(fuzzLogs, 0)
	for ; len(data) >= eventBytes; data = data[eventBytes:] {
		flags := data[3]
		wide := flags&0x80 != 0
		ev := profile.Event{
			Kind:  profile.Kind(data[0] % 9), // one past KindHelp: an unknown kind
			Mode:  profile.TouchMode(data[1] % 7),
			Task:  wideID(data[4], wide),
			Other: wideID(data[5], wide),
			Job:   wideID(data[6], wide),
			Arg:   int32(binary.LittleEndian.Uint32(data[8:])),
			N:     int32(binary.LittleEndian.Uint32(data[12:])),
			Disc:  dag.Discipline(flags & 1),
		}
		if log := int(data[2] % (fuzzLogs + 1)); log < fuzzLogs {
			r.Record(log, ev)
		} else {
			r.RecordExternal(ev)
		}
	}
	return r.Collect()
}

// namedTasks counts the distinct task IDs tr's spawn, touch and yield events
// name, the external context's included.
func namedTasks(tr *profile.Trace) int {
	ids := map[uint64]bool{0: true}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case profile.KindSpawn, profile.KindTouch:
			ids[ev.Other] = true
			fallthrough
		case profile.KindYield:
			ids[ev.Task] = true
		}
	}
	return len(ids)
}

// encodeTrace is decodeTrace's inverse for traces whose ids fit a byte.
func encodeTrace(tr *profile.Trace) []byte {
	var out []byte
	logs := append(append([][]profile.Event{}, tr.PerWorker...), tr.External)
	for log, evs := range logs {
		for _, ev := range evs {
			b := []byte{byte(ev.Kind), byte(ev.Mode), byte(log), byte(ev.Disc) & 1, byte(ev.Task), byte(ev.Other), byte(ev.Job), 0}
			b = binary.LittleEndian.AppendUint32(b, uint32(ev.Arg))
			out = append(out, binary.LittleEndian.AppendUint32(b, uint32(ev.N))...)
		}
	}
	return out
}

// FuzzReconstruct feeds Reconstruct arbitrary event streams and holds it to
// reconstructReference: both refuse a stream alike or agree on what they
// return (checkAgainstReference), which must be a graph that passes Validate.
// Reconstruct may not panic or allocate out of proportion to its input,
// whatever item index or count an event claims.
func FuzzReconstruct(f *testing.F) {
	golden := encodeTrace(jobTreesTrace(1))
	f.Add(golden)
	f.Add(golden[:len(golden)/2/eventBytes*eventBytes]) // truncated
	f.Add(golden[len(golden)/3/eventBytes*eventBytes:]) // its beginning lost
	ev := func(kind profile.Kind, mode profile.TouchMode, log, task, other byte, arg, n int32) []byte {
		b := []byte{byte(kind), byte(mode), log, 0, task, other, 0, 0}
		b = binary.LittleEndian.AppendUint32(b, uint32(arg))
		return binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	cat := func(evs ...[]byte) (out []byte) {
		for _, e := range evs {
			out = append(out, e...)
		}
		return out
	}
	f.Add(cat( // a stream: two yields, the items touched last first, then one never yielded
		ev(profile.KindSpawn, 0, 4, 0, 1, -1, 0),
		ev(profile.KindYield, 0, 0, 1, 0, 0, 0), ev(profile.KindYield, 0, 0, 1, 0, 1, 0),
		ev(profile.KindTouch, profile.ModeReady, 4, 0, 1, 1, 0), ev(profile.KindTouch, profile.ModeReady, 4, 0, 1, 0, 0),
		ev(profile.KindTouch, profile.ModeReady, 4, 0, 1, 1<<30, 0)))
	f.Add(cat( // two tasks that touch each other
		ev(profile.KindSpawn, 0, 4, 0, 1, -1, 0), ev(profile.KindSpawn, 0, 4, 0, 2, -1, 0),
		ev(profile.KindTouch, profile.ModeBlocked, 0, 1, 2, -1, 0), ev(profile.KindTouch, profile.ModeBlocked, 1, 2, 1, -1, 0),
		ev(profile.KindTouch, profile.ModeExternal, 4, 0, 1, -1, 0)))
	f.Add(cat( // a task spawned twice, one that spawns itself, the external context spawned
		ev(profile.KindSpawn, 0, 4, 0, 1, -1, 0), ev(profile.KindSpawn, 0, 4, 0, 1, -1, 0),
		ev(profile.KindSpawn, 0, 0, 1, 1, -1, 0), ev(profile.KindSpawn, 0, 0, 1, 0, -1, 0),
		ev(profile.KindTouch, profile.ModeInline, 0, 1, 1, -1, 0), ev(profile.KindSteal, 0, 2, 1, 0, -1, -5)))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeTrace(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = profile.Reconstruct(tr)
		runtime.ReadMemStats(&after)
		// The budget is per event (its step, the nodes and threads it may add)
		// and per task the events name (the dense tables, the task's row of
		// the result): all told some 100 bytes per event of a recorded trace,
		// up to 550 where every event names new tasks. Per-task objects and
		// maps cost three times the first. The harness's own goroutines
		// allocate a little beside.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<10+128*tr.Len()+320*namedTasks(tr)); got > limit {
			t.Fatalf("%d events: Reconstruct allocated %d bytes, limit %d", tr.Len(), got, limit)
		}
		if msg := checkAgainstReference(tr); msg != "" {
			t.Fatalf("%d events: %s", tr.Len(), msg)
		}
	})
}
