package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
)

// Tests for what a task knows about its runtime: nothing but its job. A
// future's runtime is its job's, job-less work belongs to its runtime's job 0
// (Runtime.solo), and a task's body reaches the object that embeds the task by
// one pointer conversion. CI runs the tests named ForeignWorker, JobZero and
// TaskAtOffsetZero under -race -count=10 at GOMAXPROCS=4.

// TestTaskAtOffsetZero pins what the bodies' one unsafe conversion relies on:
// the task is the first field of every object that embeds it, so a *task is a
// pointer to its Future, its Stream or its job root's future. The live part
// runs all three conversions, which -race builds check (checkptr).
func TestTaskAtOffsetZero(t *testing.T) {
	var f Future[int]
	var s Stream[int]
	var r jobRoot[int]
	for name, off := range map[string]uintptr{
		"Future[int]":      unsafe.Offsetof(f.task),
		"Stream[int]":      unsafe.Offsetof(s.task),
		"jobRoot[int].fut": unsafe.Offsetof(r.fut.task),
	} {
		if off != 0 {
			t.Errorf("the task of a %s is at offset %d, want 0", name, off)
		}
	}
	if (*Future[int])(unsafe.Pointer(&r.fut.task)) != &r.fut {
		t.Error("a job root's task does not convert back to its future")
	}

	rt := newRT(t, 2)
	j, err := Submit(rt, func(w *W) int {
		st := Produce(rt, w, 3, func(_ *W, i int) int { return i })
		f := Spawn(rt, w, sevenFn)
		return st.Get(w, 0) + st.Get(w, 1) + st.Get(w, 2) + f.Touch(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := j.Wait(); v != 10 {
		t.Fatalf("job = %d, want 10", v)
	}
}

// TestForeignWorkerTouch: a task of runtime A touches a future of runtime B,
// in each state a future can be touched in, with a profiling session open on
// B. The future is spawned by B's worker, either in a job-less Run or inside a
// B job. A foreign worker's touch is recorded in A's log, except TryTouch's,
// which B records as an external touch; so B's trace holds the future's spawn,
// its execution where B's worker ran it, and nothing that is not of the
// future's job. A job-less spawn A's worker makes while it runs B's task is
// A's, not B's.
func TestForeignWorkerTouch(t *testing.T) {
	const (
		unstarted = iota // A's worker claims the future and runs it inline
		finished         // B dived into it; A's touch finds it done
		tried            // the same, taken by TryTouch
		running          // B's worker runs it; A's touch helps, polls or blocks
	)
	cases := []struct {
		name string
		// begins is how many times B's trace shows the future begin;
		// touches the modes of its touches there.
		begins  int
		touches []profile.TouchMode
		// rowA and rowB are the tasks run and inline touches A's and B's rows
		// count: an execution counts in the row of the worker that ran it, so
		// A's inline run of the future (and of the spawn it makes there) is
		// A's, B's dive or private wait that runs it B's.
		rowA, rowB [2]int64
	}{
		unstarted: {"unstarted", 0, nil, [2]int64{3, 2}, [2]int64{1, 0}},
		finished:  {"finished", 1, nil, [2]int64{1, 0}, [2]int64{2, 0}},
		tried:     {"TryTouch", 1, []profile.TouchMode{profile.ModeReady}, [2]int64{1, 0}, [2]int64{2, 0}},
		running:   {"running", 1, []profile.TouchMode{profile.ModeInline}, [2]int64{1, 0}, [2]int64{2, 1}},
	}
	for _, inJob := range []bool{false, true} {
		for kind, c := range cases {
			t.Run(fmt.Sprintf("%s/inJob=%v", c.name, inJob), func(t *testing.T) {
				a, b := newRT(t, 1), newRT(t, 1)
				if err := b.StartProfile(); err != nil {
					t.Fatal(err)
				}
				var fut atomic.Pointer[Future[int]]
				var homedOnA atomic.Bool
				release, gate := make(chan struct{}), make(chan struct{})
				fn := func(w *W) int {
					if kind == running {
						<-gate
					}
					if w.Runtime() == a {
						g := SpawnWith(a, w, ParentFirst, sevenFn)
						homedOnA.Store(g.job == &a.solo)
						return g.Touch(w)
					}
					return 7
				}
				body := func(wb *W) int {
					d := ParentFirst
					if kind == finished || kind == tried {
						d = FutureFirst
					}
					f := SpawnWith(b, wb, d, fn)
					fut.Store(f)
					if kind == running {
						return f.wait(wb) // B's worker runs f, held at the gate
					}
					<-release // keep B's only worker from running f
					return 7
				}
				var j Job[int]
				bDone := make(chan int, 1)
				if inJob {
					var err error
					if j, err = Submit(b, body); err != nil {
						t.Fatal(err)
					}
				} else {
					go func() { bDone <- Run(b, body) }()
				}
				waitUntil(func() bool {
					f := fut.Load()
					return f != nil && (kind != running || f.status.Load()&stateMask == stateRunning)
				})
				f := fut.Load()

				type touched struct {
					v   int
					err error
				}
				aDone := make(chan touched, 1)
				go func() {
					aDone <- Run(a, func(wa *W) touched {
						if kind == tried {
							v, ok := f.TryTouch(wa)
							if !ok {
								return touched{err: errors.New("TryTouch of a finished future took nothing")}
							}
							return touched{v: v}
						}
						v, err := f.touchErr(wa)
						return touched{v, err}
					})
				}()
				if kind == running {
					waitUntil(func() bool { return f.status.Load()&stateTouched != 0 })
					close(gate)
				}
				if got := <-aDone; got.err != nil || got.v != 7 {
					t.Fatalf("A's touch = %d, %v; want 7", got.v, got.err)
				}
				close(release)
				var bv int
				wantJob := uint64(0)
				if inJob {
					bv, wantJob = j.Wait(), j.ID()
				} else {
					bv = <-bDone
				}
				if bv != 7 {
					t.Fatalf("B's body = %d, want 7", bv)
				}
				if kind == unstarted && !homedOnA.Load() {
					t.Error("a job-less spawn by A's worker running B's task was not homed on A")
				}
				for _, r := range []struct {
					name string
					rt   *Runtime
					want [2]int64
				}{{"A", a, c.rowA}, {"B", b, c.rowB}} {
					snap := r.rt.TelemetrySnapshot()
					if got := [2]int64{snap.Total(telemetry.CTasksRun), snap.Total(telemetry.CInlineTouches)}; got != r.want {
						t.Errorf("%s's row: %d tasks run, %d inline touches; want %d, %d", r.name, got[0], got[1], r.want[0], r.want[1])
					}
				}

				tr := b.StopProfile()
				spawns, begins := 0, 0
				var modes []profile.TouchMode
				for _, ev := range tr.Events() {
					if ev.Job != wantJob {
						t.Errorf("B's trace has an event of job %d, want only job %d: %v", ev.Job, wantJob, ev)
					}
					switch {
					case ev.Kind == profile.KindSpawn && ev.Other == f.id():
						spawns++
					case ev.Kind == profile.KindBegin && ev.Task == f.id():
						begins++
					case ev.Kind == profile.KindTouch && ev.Other == f.id():
						modes = append(modes, ev.Mode)
					}
				}
				if spawns != 1 || begins != c.begins || !slices.Equal(modes, c.touches) {
					t.Errorf("B's trace shows the future spawned %d times, begun %d times, touched %v; want 1, %d, %v",
						spawns, begins, modes, c.begins, c.touches)
				}
			})
		}
	}
}

// TestJobZeroNeverCounted: job-less tasks belong to their runtime's job 0,
// which nothing refcounts or writes — not the liveness references a real job
// pays for on every spawn, nor its wall-clock capture. The first run makes a
// steal and a blocked touch for certain: the root's child waits at a gate
// until the other worker has stolen it and the root has blocked on it.
func TestJobZeroNeverCounted(t *testing.T) {
	rt := newRT(t, 2)
	gate := make(chan struct{})
	var held atomic.Pointer[Future[int]]
	go func() {
		waitUntil(func() bool { f := held.Load(); return f != nil && f.waiter.Load() != nil })
		close(gate)
	}()
	Run(rt, func(w *W) int {
		f := Spawn(rt, w, func(*W) int { <-gate; return 1 })
		held.Store(f)
		waitUntil(func() bool { return !f.unstarted() })
		return f.Touch(w)
	})
	for round := 0; round < 5; round++ {
		if got := Run(rt, func(w *W) int { return passedTree(rt, w, 8) }); got != 1<<9-1 {
			t.Fatalf("passedTree = %d, want %d", got, 1<<9-1)
		}
	}
	if st := rt.Stats(); st.Steals == 0 || st.BlockedTouches == 0 {
		t.Fatalf("runs made %d steals and %d blocked touches, want some of each", st.Steals, st.BlockedTouches)
	}
	js := &rt.solo
	for name, v := range map[string]int64{
		"refs": js.refs.Load(), "queueWaitNs": js.queueWaitNs.Load(), "latencyNs": js.latencyNs.Load(),
		"gen": int64(js.gen.Load()), "id": int64(js.id.Load()), "root": int64(js.root),
	} {
		if v != 0 {
			t.Errorf("job 0's %s = %d after job-less runs with steals, want 0", name, v)
		}
	}
	if js.isJob() || js.rt != rt {
		t.Error("job 0 is a job, or not its runtime's")
	}
}
