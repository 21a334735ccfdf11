package profile_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"futurelocality/internal/dag"
	"futurelocality/internal/profile"
	"futurelocality/internal/runtime"
)

// record runs body on a fresh profiled runtime of workers workers and returns
// the trace.
func record(t *testing.T, workers int, body func(rt *runtime.Runtime)) *profile.Trace {
	t.Helper()
	rt := runtime.New(runtime.WithWorkers(workers))
	defer rt.Shutdown()
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	body(rt)
	return rt.StopProfile()
}

// passedRandom is a seeded random spawn tree in which every node spawns a leaf
// and passes it to one of the children it forks next, which touches it: a
// random structured computation whose touches meet futures that are not at the
// toucher's own deque bottom.
func passedRandom(rt *runtime.Runtime, w *runtime.W, rng *rand.Rand, mu *sync.Mutex, depth int) int {
	if depth == 0 {
		return 1
	}
	mu.Lock()
	k := 1 + rng.Intn(3)
	to := rng.Intn(k)
	mu.Unlock()
	leaf := runtime.Spawn(rt, w, func(*runtime.W) int { return 1 })
	kids := make([]*runtime.Future[int], k)
	for i := range kids {
		passed := i == to
		kids[i] = runtime.Spawn(rt, w, func(w *runtime.W) int {
			n := passedRandom(rt, w, rng, mu, depth-1)
			if passed {
				n += leaf.Touch(w)
			}
			return n
		})
	}
	sum := 0
	for _, f := range kids {
		sum += f.Touch(w)
	}
	return sum
}

// joinFib is fib through the Join2 combinator.
func joinFib(rt *runtime.Runtime, w *runtime.W, n int) int {
	if n < 8 {
		return fib(rt, w, n)
	}
	a, b := runtime.Join2(rt, w,
		func(w *runtime.W) int { return joinFib(rt, w, n-1) },
		func(w *runtime.W) int { return joinFib(rt, w, n-2) })
	return a + b
}

// namedTrace is a differential-test input.
type namedTrace struct {
	name string
	tr   *profile.Trace
}

// referenceTraces records the runtime's kinds of computation — fork-join,
// passed futures, a stream pipeline, a scope with untouched futures, Join2,
// two submitted jobs — beside the hand-built two-job trace, and adds a cut of
// each with its front (a recycled flight window) and with its back (a session
// stopped mid-run) lost.
func referenceTraces(t *testing.T) []namedTrace {
	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(3))
	base := []namedTrace{
		{"fib", record(t, 4, func(rt *runtime.Runtime) {
			runtime.Run(rt, func(w *runtime.W) int { return fib(rt, w, 18) })
		})},
		{"passed-random", record(t, 3, func(rt *runtime.Runtime) {
			runtime.Run(rt, func(w *runtime.W) int { return passedRandom(rt, w, rng, &rngMu, 5) })
		})},
		{"stream", record(t, 2, func(rt *runtime.Runtime) {
			runtime.Run(rt, func(w *runtime.W) int {
				st := runtime.Produce(rt, w, 40, func(_ *runtime.W, i int) int { return i })
				part := runtime.Produce(rt, w, 10, func(_ *runtime.W, i int) int { return i })
				acc := part.Get(w, 3) // the rest of part is never consumed
				for i := 0; i < 40; i++ {
					acc += st.Get(w, i)
				}
				return acc
			})
		})},
		{"scope", record(t, 3, func(rt *runtime.Runtime) {
			runtime.Run(rt, func(w *runtime.W) int {
				sum := 0
				runtime.Scope(rt, w, func(s *runtime.Sync) {
					for i := 0; i < 4; i++ {
						s.Go(func(w *runtime.W) { fib(rt, w, 11) })
					}
					f := runtime.SpawnIn(s, func(w *runtime.W) int { return fib(rt, w, 12) })
					sum = f.Touch(w)
				})
				return sum
			})
		})},
		{"join2", record(t, 4, func(rt *runtime.Runtime) {
			runtime.Run(rt, func(w *runtime.W) int { return joinFib(rt, w, 17) })
		})},
		{"two-jobs", record(t, 3, func(rt *runtime.Runtime) {
			var jobs []runtime.Job[int]
			for n := 14; n <= 15; n++ {
				j, err := runtime.Submit(rt, func(w *runtime.W) int { return fib(rt, w, n) })
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				j.Wait()
			}
		})},
		{"job-trees", jobTreesTrace(4)},
	}
	out := slices.Clone(base)
	for _, nt := range base {
		out = append(out,
			namedTrace{nt.name + "/front-cut", cutTrace(nt.tr, func(log []profile.Event) []profile.Event { return log[len(log)/3:] })},
			namedTrace{nt.name + "/back-cut", cutTrace(nt.tr, func(log []profile.Event) []profile.Event { return log[:len(log)/2] })})
	}
	return out
}

// cutTrace applies cut to every log of tr.
func cutTrace(tr *profile.Trace, cut func([]profile.Event) []profile.Event) *profile.Trace {
	out := &profile.Trace{External: cut(tr.External)}
	for _, log := range tr.PerWorker {
		out.PerWorker = append(out.PerWorker, cut(log))
	}
	return out
}

// checkAgainstReference reconstructs tr both ways and returns what differs,
// or "" when they agree: errors alike, graphs node for node, counters, the
// task table against the reference's three maps, and the Incomplete notes as
// multisets.
func checkAgainstReference(tr *profile.Trace) string {
	got, err := profile.Reconstruct(tr)
	want, wantErr := reconstructReference(tr)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return ""
	}
	g, wg := got.Graph, want.Graph
	switch {
	case !slices.Equal(g.Nodes, wg.Nodes):
		return fmt.Sprintf("nodes differ (%d vs %d)", len(g.Nodes), len(wg.Nodes))
	case !slices.Equal(g.Touches, wg.Touches):
		return "touches differ"
	case !slices.Equal(g.ThreadFirst, wg.ThreadFirst), !slices.Equal(g.ThreadLast, wg.ThreadLast),
		!slices.Equal(g.ThreadFork, wg.ThreadFork):
		return "threads differ"
	case g.Final != wg.Final || g.SuperFinal != wg.SuperFinal || g.Span() != wg.Span():
		return fmt.Sprintf("final %d super %v span %d, reference %d %v %d",
			g.Final, g.SuperFinal, g.Span(), wg.Final, wg.SuperFinal, wg.Span())
	}
	counters := func(r profile.Recon) profile.Recon {
		r.Graph, r.Tasks, r.Incomplete = nil, nil, nil
		return r
	}
	if c, wc := counters(*got), counters(want.Recon); !reflect.DeepEqual(c, wc) {
		return fmt.Sprintf("counters %+v, reference %+v", c, wc)
	}
	if msg := checkTaskTable(got, want); msg != "" {
		return msg
	}
	return checkNotes(got.Incomplete, want.Incomplete)
}

// checkTaskTable holds Recon.Tasks to the reference's task count and maps.
func checkTaskTable(got *profile.Recon, want *referenceRecon) string {
	if len(got.Tasks) != want.NumTasks {
		return fmt.Sprintf("%d tasks, reference %d", len(got.Tasks), want.NumTasks)
	}
	threads, spawned, jobs := 0, 0, 0
	for i, task := range got.Tasks {
		if i > 0 && got.Tasks[i-1].ID >= task.ID {
			return fmt.Sprintf("task table not sorted by ID at %d", i)
		}
		if found, ok := got.Task(task.ID); !ok || found != task {
			return fmt.Sprintf("Task(%d) = %+v, %v", task.ID, found, ok)
		}
		if th, ok := want.TaskThread[task.ID]; ok != (task.Thread != dag.NoThread) || ok && th != task.Thread {
			return fmt.Sprintf("task %d: thread %d, reference %d (%v)", task.ID, task.Thread, th, ok)
		}
		if d, ok := want.TaskDiscipline[task.ID]; ok != task.Spawned || ok && d != task.Discipline {
			return fmt.Sprintf("task %d: spawned %v %v, reference %v %v", task.ID, task.Spawned, task.Discipline, ok, d)
		}
		if j := want.TaskJob[task.ID]; j != task.Job {
			return fmt.Sprintf("task %d: job %d, reference %d", task.ID, task.Job, j)
		}
		threads += btoi(task.Thread != dag.NoThread)
		spawned += btoi(task.Spawned)
		jobs += btoi(task.Job != 0)
	}
	if threads != len(want.TaskThread) || spawned != len(want.TaskDiscipline) || jobs != len(want.TaskJob) {
		return fmt.Sprintf("%d/%d/%d threads/spawns/jobs in the table, reference %d/%d/%d",
			threads, spawned, jobs, len(want.TaskThread), len(want.TaskDiscipline), len(want.TaskJob))
	}
	return ""
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// unknownSpawn marks the notes the reference emits in map order.
const unknownSpawn = "traced but its spawn point is unknown"

// checkNotes compares Incomplete lists as multisets. Where the reference hit
// the 32-note cap, which unknown-spawn notes it kept is up to map order, so
// only the replay's notes before them, the count, and that Reconstruct kept
// the lowest task IDs in order can be compared.
func checkNotes(got, want []string) string {
	if len(want) < 32 {
		if g, w := slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want)); !slices.Equal(g, w) {
			return fmt.Sprintf("notes %q, reference %q", got, want)
		}
		return ""
	}
	split := func(notes []string) int {
		return slices.IndexFunc(notes, func(s string) bool { return strings.Contains(s, unknownSpawn) })
	}
	at := split(want)
	if len(got) != len(want) || split(got) != at || !slices.Equal(got[:max(at, 0)], want[:max(at, 0)]) {
		return fmt.Sprintf("capped notes %q, reference %q", got, want)
	}
	if at >= 0 && !slices.IsSortedFunc(got[at:], func(a, b string) int { return cmp.Compare(noteID(a), noteID(b)) }) {
		return fmt.Sprintf("unknown-spawn notes not in task-ID order: %q", got[at:])
	}
	return ""
}

// noteID parses the task ID of an unknown-spawn note.
func noteID(note string) uint64 {
	var id uint64
	fmt.Sscanf(note, "task %d", &id)
	return id
}

// TestReconstructMatchesReference holds the dense replay to the map-based one
// it replaced, on recorded traces of every kind of computation the runtime
// makes and on truncated cuts of them.
func TestReconstructMatchesReference(t *testing.T) {
	for _, nt := range referenceTraces(t) {
		if msg := checkAgainstReference(nt.tr); msg != "" {
			t.Errorf("%s (%d events): %s", nt.name, nt.tr.Len(), msg)
		}
	}
}

// TestIncompleteNotesDeterministic: a trace whose front is lost — the steady
// state of a recycled flight window — sheds more unknown-spawn notes than the cap
// keeps, and every call must keep the same ones, in task-ID order.
func TestIncompleteNotesDeterministic(t *testing.T) {
	tr := cutTrace(jobTreesTrace(8), func(log []profile.Event) []profile.Event { return log[len(log)/3:] })
	var first []string
	for i := 0; i < 20; i++ {
		rec, err := profile.Reconstruct(tr)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rec.Incomplete
			if len(first) != 32 {
				t.Fatalf("%d notes, want the cap of 32", len(first))
			}
			if msg := checkNotes(first, first); msg != "" {
				t.Fatal(msg)
			}
		} else if !slices.Equal(rec.Incomplete, first) {
			t.Fatalf("call %d noted %q, call 0 %q", i, rec.Incomplete, first)
		}
	}
}

// splitJobs partitions tr by Event.Job, the reference for the runs Analyze
// reconstructs each job from: one sub-trace per nonzero job ID, preserving
// the per-worker log shape (and therefore per-task program order, which is
// all reconstruction relies on). Events of other jobs — and job 0's
// background events — are absent from a job's sub-trace.
func splitJobs(tr *profile.Trace) map[uint64]*profile.Trace {
	out := map[uint64]*profile.Trace{}
	sub := func(id uint64) *profile.Trace {
		s := out[id]
		if s == nil {
			s = &profile.Trace{PerWorker: make([][]profile.Event, len(tr.PerWorker))}
			out[id] = s
		}
		return s
	}
	for wi, log := range tr.PerWorker {
		for _, ev := range log {
			if ev.Job != 0 {
				sub(ev.Job).PerWorker[wi] = append(sub(ev.Job).PerWorker[wi], ev)
			}
		}
	}
	for _, ev := range tr.External {
		if ev.Job != 0 {
			sub(ev.Job).External = append(sub(ev.Job).External, ev)
		}
	}
	return out
}

// TestJobReportsMatchSplitJobs: Analyze reconstructs each job from runs of the
// one trace; every job's reconstruction must equal Reconstruct of the job's
// sub-trace as splitJobs copies it out.
func TestJobReportsMatchSplitJobs(t *testing.T) {
	for _, nt := range referenceTraces(t) {
		rep, err := profile.Analyze(nt.tr, profile.Options{P: 2, Trials: 1, NoMatrix: true})
		if err != nil {
			continue // the pooled reconstruction refused the cut
		}
		subs := splitJobs(nt.tr)
		if len(rep.Jobs) != len(subs) {
			t.Fatalf("%s: %d job reports, %d sub-traces", nt.name, len(rep.Jobs), len(subs))
		}
		for _, jr := range rep.Jobs {
			want, err := profile.Reconstruct(subs[jr.Job])
			if err != nil {
				t.Fatalf("%s job %d: %v", nt.name, jr.Job, err)
			}
			// The analysis classified its job's graph, which keeps the class
			// with it; so does the graph compared with it.
			want.Graph.Class()
			if !reflect.DeepEqual(jr.Recon, want) {
				t.Errorf("%s job %d: reconstruction differs from its splitJobs sub-trace's", nt.name, jr.Job)
			}
		}
	}
}
