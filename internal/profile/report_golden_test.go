package profile_test

import (
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"

	"futurelocality/internal/cache"
	"futurelocality/internal/core"
	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report.golden from the current output")

// jobTreesTrace is a hand-built trace of two submitted jobs on four workers:
// job j's root forks a binary spawn tree of depth+j levels on worker 0, the
// first child of every even-depth task is stolen by the next worker, and each
// root records one helped task. Every event is a literal, so the trace — and
// everything Analyze derives from it — is the same on every host.
func jobTreesTrace(depth int) *profile.Trace {
	r := profile.NewRecorder(4, 0)
	next := uint64(0)
	var tree func(job uint64, worker int, task uint64, depth int)
	tree = func(job uint64, worker int, task uint64, depth int) {
		r.Record(worker, profile.Event{Kind: profile.KindBegin, Task: task, Arg: -1, Job: job})
		if depth > 0 {
			var kids [2]uint64
			for i := range kids {
				next++
				kids[i] = next
				r.Record(worker, profile.Event{Kind: profile.KindSpawn, Task: task, Other: kids[i],
					Arg: -1, Job: job, Disc: dag.ParentFirst})
			}
			for i, kid := range kids {
				mode, on := profile.ModeInline, worker
				if depth%2 == 0 && i == 0 {
					// Stolen: runs on the other worker, found ready.
					mode, on = profile.ModeReady, (worker+1)%4
				}
				tree(job, on, kid, depth-1)
				if on != worker {
					r.Record(on, profile.Event{Kind: profile.KindSteal, Task: kid, Arg: -1, Job: job})
				}
				r.Record(worker, profile.Event{Kind: profile.KindTouch, Mode: mode, Task: task,
					Other: kid, Arg: -1, Job: job})
			}
		}
		r.Record(worker, profile.Event{Kind: profile.KindEnd, Task: task, Arg: -1, Job: job})
	}
	for job := uint64(1); job <= 2; job++ {
		next++
		root := next
		r.RecordExternal(profile.Event{Kind: profile.KindSpawn, Other: root, Arg: -1, Job: job,
			Disc: dag.ParentFirst})
		tree(job, 0, root, depth+int(job))
		r.Record(0, profile.Event{Kind: profile.KindHelp, Task: root, Arg: -1, Job: job})
		r.RecordExternal(profile.Event{Kind: profile.KindTouch, Mode: profile.ModeExternal,
			Other: root, Arg: -1, Job: job})
	}
	return r.Collect()
}

// goldenOptions turn everything on: a cache model with a shared tier, the
// fork matrix and the per-job split. Options.CacheLines is set to show that
// it is ignored.
func goldenOptions() profile.Options {
	return profile.Options{
		P: 4, Trials: 4, Seed: 5, CacheLines: 8,
		CacheModel: &core.CacheModel{Lines: 8, Kind: cache.LRU, LLCLines: 32},
	}
}

// TestReportGolden pins profile.Report.String and core.Report.String byte
// for byte on jobTreesTrace(3) under goldenOptions. The file was generated at
// the commit before the two renderers and the two trial loops were merged; a
// refactor of either must leave it alone.
func TestReportGolden(t *testing.T) {
	rep, err := profile.Analyze(jobTreesTrace(3), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := rep.String() + "--- core.Report ---\n" + rep.Sim.String()
	const path = "testdata/report.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report drifted from %s:\n%s", path, got)
	}
}

// TestReportsIndependentOfGOMAXPROCS: the golden report — primary, matrix
// cells and jobs fanned out, trials fanned out inside each — is the same
// value and the same text at 1, 2 and 8 Ps.
func TestReportsIndependentOfGOMAXPROCS(t *testing.T) {
	tr := jobTreesTrace(3)
	var want *profile.Report
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		got, err := profile.Analyze(tr, goldenOptions())
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Errorf("report at GOMAXPROCS=%d differs from the one at 1:\n%s\nvs\n%s", procs, got, want)
		}
	}
}

// BenchmarkProfileAnalyze is one full Analyze — primary, one replayed matrix
// cell, two jobs, the cache model on — of a 10 747-node reconstruction; read it
// under -cpu 1,2 for the fan-out's gain and its one-P cost (a b.N loop for
// the reason BenchmarkAnalyze in internal/core gives).
func BenchmarkProfileAnalyze(b *testing.B) {
	tr := jobTreesTrace(8)
	opts := profile.Options{P: 4, Trials: 8, Seed: 7, CacheModel: &core.CacheModel{Lines: 64}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Analyze(tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}
