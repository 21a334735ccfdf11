package runtime

import (
	stdruntime "runtime"
	"testing"
	"time"

	"futurelocality/internal/deque"
	"futurelocality/internal/profile"
	"futurelocality/internal/telemetry"
)

// leafIntFn is a package-level body for hand-scheduled futures (a closure
// would work too; a named function keeps the deterministic tests readable).
func leafIntFn(*W) int { return 1 }

// TestStealPoliciesComputeCorrectly runs the same fib workload under both
// fork disciplines on several workers: the result must be identical — where
// a thief looks first moves work, it must never change what is computed.
func TestStealPoliciesComputeCorrectly(t *testing.T) {
	const n = 18
	ref := -1
	for _, d := range []Discipline{FutureFirst, ParentFirst} {
		rt := New(WithWorkers(4), WithDiscipline(d), WithSeed(7))
		got := Run(rt, func(w *W) int { return profFib(rt, w, n) })
		rt.Shutdown()
		if ref == -1 {
			ref = got
		}
		if got != ref {
			t.Fatalf("fib(%d) under %v = %d, want %d", n, d, got, ref)
		}
	}
}

// TestStealPolicyRecordedPerEvent: the traced steals are single steals, one
// per stolen execution: no steal event carries a helped count, and the trace
// holds as many as the counters read, every one of them intra-domain.
func TestStealPolicyRecordedPerEvent(t *testing.T) {
	rt := New(WithWorkers(4), WithSeed(3))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		Run(rt, func(w *W) int { return profFib(rt, w, 16) })
	}
	tr := rt.StopProfile()
	st := rt.Stats()
	rt.Shutdown()
	evs := stealEvents(tr)
	for _, ev := range evs {
		if ev.N != 0 {
			t.Fatalf("steal event carries N=%d; N counts helped tasks of a touch only", ev.N)
		}
	}
	if n := int64(len(evs)); st.Steals != n || st.IntraSteals != n || st.CrossSteals != 0 {
		t.Fatalf("%d steal events, Stats steals %d (intra %d, cross %d) — want one number and no cross",
			n, st.Steals, st.IntraSteals, st.CrossSteals)
	}
}

// bareRuntime builds a Runtime with the given workers but WITHOUT starting
// worker loops: the test goroutine owns every W and can drive find/exec/
// stealFrom deterministically. Only the paths that never park may be used
// (worker-local pushes, steals, exec); Shutdown must not be called.
func bareRuntime(workers int) *Runtime {
	rt := &Runtime{born: time.Now()}
	rt.solo.rt = rt
	rt.tele = telemetry.NewSet(workers)
	rt.teleExt = rt.tele.External()
	for i := 0; i < workers; i++ {
		w := &W{rt: rt, id: i, dq: deque.NewPtr[task](64), tele: rt.tele.Row(i),
			slot: newSlot(), rng: uint64(i + 1), curJob: &rt.solo}
		rt.workers = append(rt.workers, w)
	}
	for _, w := range rt.workers {
		for _, v := range rt.workers {
			if v != w {
				w.victims = append(w.victims, v)
			}
		}
	}
	return rt
}

// stealEvents filters a trace down to its KindSteal events.
func stealEvents(tr *profile.Trace) []profile.Event {
	var out []profile.Event
	for _, ev := range tr.Events() {
		if ev.Kind == profile.KindSteal {
			out = append(out, ev)
		}
	}
	return out
}

// TestStealCountedOnce drives the counted-once law by hand on two workers: a
// steal is counted where the stolen task runs, in every place at once — the
// thief's steal counter (Stats.Steals, which is also IntraSteals; CrossSteals
// stays 0) and one KindSteal event carrying the task's job — and a thief that
// loses the task to a toucher between the deque and the claim counts a steal
// attempt and nothing else.
func TestStealCountedOnce(t *testing.T) {
	rt := bareRuntime(2)
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	thief, victim := rt.workers[0], rt.workers[1]

	// Two jobs, their roots run by hand on the victim: job 1's leaves two
	// children on its deque (lost on top, near under it), job 2's one more
	// (far, at the bottom).
	var lost, near, far *Future[int]
	j1, err := Submit(rt, func(w *W) int {
		lost = SpawnWith(rt, w, ParentFirst, leafIntFn)
		near = SpawnWith(rt, w, ParentFirst, leafIntFn)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Submit(rt, func(w *W) int {
		far = SpawnWith(rt, w, ParentFirst, leafIntFn)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if root := rt.popInjected(); root == nil || !victim.execCtx(root, 0) {
			t.Fatal("the victim could not run a job's root")
		}
	}
	type counts struct{ attempts, steals, intra, cross int64 }
	read := func() counts {
		st := rt.Stats()
		return counts{thief.tele.Load(telemetry.CStealAttempts), st.Steals, st.IntraSteals, st.CrossSteals}
	}

	// (a) The thief takes lost off the victim's deque; the victim touches it —
	// it claims and runs it inline — before the thief's claim.
	tk, fl := thief.stealOnce()
	if tk != &lost.task {
		t.Fatal("the first steal did not take the task at the top of the victim's deque")
	}
	if lost.Touch(victim) != 1 {
		t.Fatal("the toucher did not run the task the thief holds")
	}
	if thief.execCtx(tk, fl) {
		t.Fatal("the thief claimed a task its toucher had already run")
	}
	if got, want := read(), (counts{attempts: 1}); got != want {
		t.Fatalf("after a steal lost to a toucher: %+v, want %+v — one attempt and nothing else", got, want)
	}

	// (b) The thief takes near and runs it: counted everywhere, once.
	if tk, fl = thief.stealOnce(); tk != &near.task || fl != execStolen || !thief.execCtx(tk, fl) {
		t.Fatal("the thief did not get to run the victim's second task")
	}
	if got, want := read(), (counts{attempts: 2, steals: 1, intra: 1}); got != want {
		t.Fatalf("after an executed steal: %+v, want %+v", got, want)
	}
	// The same for the other job's task (its event carries that job).
	if tk, fl = thief.stealOnce(); tk != &far.task || !thief.execCtx(tk, fl) {
		t.Fatal("the thief did not get to run the victim's third task")
	}
	if got, want := read(), (counts{attempts: 3, steals: 2, intra: 2}); got != want {
		t.Fatalf("after a steal of the other job's task: %+v, want %+v", got, want)
	}

	evs := stealEvents(rt.StopProfile())
	want := []profile.Event{{Task: near.id(), Job: j1.ID()}, {Task: far.id(), Job: j2.ID()}}
	if len(evs) != len(want) {
		t.Fatalf("trace has %d steal events, want %d (none for the task the toucher ran): %v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Task != want[i].Task || ev.Job != want[i].Job || ev.Worker != int32(thief.id) {
			t.Errorf("steal event %d = %v, want task %d job %d on the thief", i, ev, want[i].Task, want[i].Job)
		}
	}
	if near.Touch(victim)+far.Touch(victim)+j1.Wait()+j2.Wait() != 2 {
		t.Fatal("wrong results")
	}
}

// passedTree is fork-join with a passed future at every node (Figure 5(b)):
// the node spawns a leaf and hands it to the child it forks next, which
// touches it — so a touch meets a future that is on another task's deque, in
// a thief's hands or running elsewhere, not only at the toucher's own deque
// bottom. Only leaves are passed: a task that can itself block is touched by
// its creator alone, so a helping worker never runs a toucher of something
// suspended further down its own stack. The leaves of the tree yield, so that
// thieves get to run on one P too. Returns 2^(depth+1) − 1.
func passedTree(rt *Runtime, w *W, depth int) int {
	if depth == 0 {
		stdruntime.Gosched()
		return 1
	}
	leaf := Spawn(rt, w, leafIntFn)
	l := Spawn(rt, w, func(w *W) int { return passedTree(rt, w, depth-1) + leaf.Touch(w) })
	r := passedTree(rt, w, depth-1)
	return l.Touch(w) + r
}

// TestStealCountedOnceLive is the counted-once law on the running scheduler,
// profiling the whole run: Stats.Steals and the trace's KindSteal count are
// one number, and no stolen task has two steal events, or a steal event and
// an inline touch (a thief that lost the task to its toucher stole nothing),
// or a steal event and no execution. Helped tasks obey the same law: a task
// stolen while its worker helped is a steal only, so Stats.HelpedTasks and
// the trace's KindHelp count are one number. Every worker's row counts no
// cross-domain steal (a runtime is one steal domain), and the telemetry
// snapshot reads the same total.
func TestStealCountedOnceLive(t *testing.T) {
	rt := New(WithWorkers(4), WithSeed(11))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200 && (round < 10 || rt.Stats().Steals == 0); round++ {
		if got := Run(rt, func(w *W) int { return profFib(rt, w, 16) + passedTree(rt, w, 7) }); got != 987+255 {
			t.Fatalf("run = %d, want %d", got, 987+255)
		}
		var jobs []Job[int]
		for i := 0; i < 4; i++ {
			j, err := Submit(rt, func(w *W) int { return profFib(rt, w, 12) + passedTree(rt, w, 5) })
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			if got := j.Wait(); got != 144+63 {
				t.Fatalf("job = %d, want %d", got, 144+63)
			}
		}
	}
	tr := rt.StopProfile()
	st := rt.Stats()
	snap := rt.TelemetrySnapshot()
	rt.Shutdown()
	if st.Steals == 0 {
		t.Fatal("no steal in 200 rounds at 4 workers")
	}

	stolen := map[uint64]int{}
	inline := map[uint64]bool{}
	begun := map[uint64]bool{}
	var helped int64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case profile.KindHelp:
			helped++
		case profile.KindSteal:
			stolen[ev.Task]++
		case profile.KindTouch:
			if ev.Mode == profile.ModeInline {
				inline[ev.Other] = true
			}
		case profile.KindBegin:
			begun[ev.Task] = true
		}
	}
	for id, n := range stolen {
		if n != 1 || inline[id] || !begun[id] {
			t.Errorf("task %d: %d steal events, inline touch %v, began %v — want 1, false, true",
				id, n, inline[id], begun[id])
		}
	}
	if n := int64(len(stealEvents(tr))); st.Steals != n || st.IntraSteals != n || st.CrossSteals != 0 || snap.Steals() != n {
		t.Fatalf("Stats.Steals %d, intra/cross %d/%d, snapshot %d, trace %d steal events — want one number and no cross",
			st.Steals, st.IntraSteals, st.CrossSteals, snap.Steals(), n)
	}
	for i, row := range snap.Rows {
		if cross := row[telemetry.CStealsCrossDomain]; cross != 0 {
			t.Fatalf("row %d counts %d cross-domain steals", i, cross)
		}
	}
	if st.HelpedTasks != helped {
		t.Fatalf("Stats.HelpedTasks %d, trace %d help events — want one number", st.HelpedTasks, helped)
	}
}

// TestStealVictimUniformOnFlat: the runtime's steal rule is the theorem's —
// every other worker is a victim, and the first victim of a sweep is uniform
// over them. (A sweep that draws its offset over all n workers and skips the
// thief visits the worker after the thief first with probability 2/n.)
func TestStealVictimUniformOnFlat(t *testing.T) {
	rt := bareRuntime(4)
	for _, w := range rt.workers {
		if len(w.victims) != 3 {
			t.Fatalf("worker %d: %d victims, want the 3 others", w.id, len(w.victims))
		}
	}
	thief := rt.workers[0]
	holder := map[*task]*W{}
	for _, v := range thief.victims {
		holder[&SpawnWith(rt, v, ParentFirst, leafIntFn).task] = v
	}
	const draws = 3000
	first := map[int]int{}
	for i := 0; i < draws; i++ {
		tk, fl := thief.stealOnce()
		v := holder[tk]
		if v == nil {
			t.Fatalf("draw %d: stealOnce returned %v with every victim holding a task", i, tk)
		}
		if fl != execStolen {
			t.Fatalf("draw %d: a steal came with flags %#x, want execStolen alone", i, fl)
		}
		first[v.id]++
		v.dq.PushBottom(tk) // hand it back: every draw sees three full victims
	}
	for _, v := range thief.victims {
		if n := first[v.id]; n < draws/3*9/10 || n > draws/3*11/10 {
			t.Errorf("worker %d was robbed first in %d of %d sweeps, want a third ±10%% (%v)", v.id, n, draws, first)
		}
	}
}

// TestSingleWorkerDeviationParity is the sim-vs-runtime parity check on a
// deterministic single-worker schedule: with one worker there is nobody to
// rob, so the measured deviation count and the P=1 simulator replay of the
// reconstructed DAG in both matrix cells — one per fork discipline — must all
// be exactly zero: the two layers agree on what the steal discipline cost.
func TestSingleWorkerDeviationParity(t *testing.T) {
	rt := New(WithWorkers(1))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	Run(rt, func(w *W) int { return profFib(rt, w, 15) })
	rep, err := rt.ProfileReport(profile.Options{P: 1, Trials: 2})
	rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDeviations != 0 {
		t.Fatalf("measured %d deviations on one worker, want 0", rep.MaxDeviations)
	}
	if len(rep.Matrix) != 2 {
		t.Fatalf("matrix has %d cells, want 2", len(rep.Matrix))
	}
	for _, cell := range rep.Matrix {
		if cell.MaxDeviations != 0 {
			t.Fatalf("%v: sim replay at P=1 predicts %d deviations, want 0 (parity broken)",
				cell.Fork, cell.MaxDeviations)
		}
	}
}

// TestMatrixCoversAllCells: the profile report's matrix must contain one cell
// per fork discipline, with the envelope granted exactly at future-first (the
// computation is structured single-touch, so the bound applies there and only
// there).
func TestMatrixCoversAllCells(t *testing.T) {
	rt := New(WithWorkers(2))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	Run(rt, func(w *W) int { return profFib(rt, w, 14) })
	rep, err := rt.ProfileReport(profile.Options{P: 2, Trials: 2})
	rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Matrix) != 2 || rep.Matrix[0].Fork != FutureFirst || rep.Matrix[1].Fork != ParentFirst {
		t.Fatalf("matrix = %+v, want a future-first and a parent-first cell", rep.Matrix)
	}
	for _, cell := range rep.Matrix {
		if wantBound := cell.Fork == FutureFirst; (cell.DeviationBound > 0) != wantBound {
			t.Errorf("cell %v: bound=%d, envelope should be granted only at future-first", cell.Fork, cell.DeviationBound)
		}
	}
}
