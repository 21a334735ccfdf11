package runtime

import (
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"futurelocality/internal/deque"
	"futurelocality/internal/policy"
	"futurelocality/internal/profile"
	"futurelocality/internal/sim"
	"futurelocality/internal/telemetry"
	"futurelocality/internal/topology"
)

// leafIntFn is a package-level body for hand-scheduled futures (a closure
// would work too; a named function keeps the deterministic tests readable).
func leafIntFn(*W) int { return 1 }

// stealTopologies are the two shapes the runtime's one steal rule takes at
// four workers: all in one domain (the theorem's uniform thief) and striped
// [0 0 1 1] over two (the domain-tiered thief).
func stealTopologies(t *testing.T) []*topology.Topology {
	return []*topology.Topology{topology.Flat(4), synth(t, "2x2")}
}

// TestStealPoliciesComputeCorrectly runs the same fib workload under every
// (fork discipline × topology) pair on several workers: the result must be
// identical everywhere — where a thief looks first moves work, it must never
// change what is computed.
func TestStealPoliciesComputeCorrectly(t *testing.T) {
	const n = 18
	ref := -1
	for _, d := range []Discipline{FutureFirst, ParentFirst} {
		for _, topo := range stealTopologies(t) {
			rt := New(WithWorkers(4), WithDiscipline(d), WithTopology(topo), WithSeed(7))
			got := Run(rt, func(w *W) int { return profFib(rt, w, n) })
			rt.Shutdown()
			if ref == -1 {
				ref = got
			}
			if got != ref {
				t.Fatalf("fib(%d) under %v on %s = %d, want %d", n, d, topo.Source, got, ref)
			}
		}
	}
}

// TestStealPolicyRecordedPerEvent: every traced steal must carry the name the
// runtime derives for its steal rule from its topology, as a single steal,
// and the reconstruction's per-policy attribution must contain no other
// policy.
func TestStealPolicyRecordedPerEvent(t *testing.T) {
	for _, topo := range stealTopologies(t) {
		rt := New(WithWorkers(4), WithTopology(topo), WithSeed(3))
		sp := rt.StealPolicy()
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			Run(rt, func(w *W) int { return profFib(rt, w, 16) })
		}
		tr := rt.StopProfile()
		rt.Shutdown()
		rec, err := profile.Reconstruct(tr)
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		for p, n := range rec.StealsByPolicy {
			if p != sp {
				t.Fatalf("policy %v: %d steals attributed to %v", sp, n, p)
			}
		}
		for _, ev := range stealEvents(tr) {
			if ev.Steal != sp {
				t.Fatalf("steal event carries %v, runtime on %s steals %v", ev.Steal, topo.Source, sp)
			}
			if ev.N != 0 {
				t.Fatalf("steal event carries N=%d; N counts helped tasks of a touch only", ev.N)
			}
		}
	}
}

// bareRuntime builds a Runtime with the given workers but WITHOUT starting
// worker loops: the test goroutine owns every W and can drive find/exec/
// stealFrom deterministically. Only the paths that never park may be used
// (worker-local pushes, steals, exec); Shutdown must not be called.
func bareRuntime(workers int) *Runtime {
	return bareRuntimeOn(workers, topology.Flat(workers))
}

// bareRuntimeOn is bareRuntime on an explicit topology, so a test can place
// workers in more than one locality domain.
func bareRuntimeOn(workers int, topo *topology.Topology) *Runtime {
	rt := &Runtime{born: time.Now()}
	rt.solo.rt = rt
	rt.topo = topo
	rt.assign = rt.topo.Assign(workers)
	rt.tele = telemetry.NewSet(workers)
	rt.teleExt = rt.tele.External()
	rt.domainConds = make([]domainCond, rt.assign.NumDomains())
	for i := range rt.domainConds {
		rt.domainConds[i].cond = sync.NewCond(&rt.mu)
	}
	rt.slotCond = sync.NewCond(&rt.mu)
	for i := 0; i < workers; i++ {
		w := &W{rt: rt, id: i, dq: deque.NewPtr[task](64), tele: rt.tele.Row(i), domain: rt.assign.Domain[i],
			rng: uint64(i + 1), curJob: &rt.solo}
		rt.workers = append(rt.workers, w)
	}
	for _, w := range rt.workers {
		for _, v := range rt.workers {
			if v == w {
				continue
			}
			if v.domain == w.domain {
				w.peers = append(w.peers, v)
			} else {
				w.remote = append(w.remote, v)
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

// TestStealCountedOnce drives the counted-once law by hand on a 2x2 layout
// (domains [0 0 1 1]): a steal is counted where the stolen task runs, in
// every place at once — the thief's locality counter (whose two columns are
// Stats.Steals), the task's job and one KindSteal event — and a thief that
// loses the task to a toucher between the deque and the claim counts a steal
// attempt and nothing else.
func TestStealCountedOnce(t *testing.T) {
	rt := bareRuntimeOn(4, synth(t, "2x2"))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	thief, peer, remote := rt.workers[0], rt.workers[1], rt.workers[2]

	// Two jobs, their roots run by hand: job 1's on the thief's domain peer,
	// where it leaves two children on the deque (lost on top, near under it),
	// job 2's across the boundary, where it leaves one.
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
	for _, w := range []*W{peer, remote} {
		if root := rt.popInjected(); root == nil || !w.execCtx(root, 0) {
			t.Fatalf("worker %d could not run its job's root", w.id)
		}
	}
	type counts struct{ attempts, steals, split, job1, job2 int64 }
	read := func() counts {
		st := rt.Stats()
		return counts{thief.tele.Load(telemetry.CStealAttempts), st.Steals,
			st.IntraSteals + st.CrossSteals, j1.Stats().Steals, j2.Stats().Steals}
	}

	// (a) The thief takes lost off the peer's deque; the peer touches it — it
	// claims and runs it inline — before the thief's claim.
	tk, fl := thief.stealOnce()
	if tk != &lost.task {
		t.Fatal("the first steal did not take the task at the top of the peer's deque")
	}
	if lost.Touch(peer) != 1 {
		t.Fatal("the toucher did not run the task the thief holds")
	}
	if thief.execCtx(tk, fl) {
		t.Fatal("the thief claimed a task its toucher had already run")
	}
	if got, want := read(), (counts{attempts: 1}); got != want {
		t.Fatalf("after a steal lost to a toucher: %+v, want %+v — one attempt and nothing else", got, want)
	}

	// (b) The thief takes near and runs it: counted everywhere, once.
	if tk, fl = thief.stealOnce(); tk != &near.task || !thief.execCtx(tk, fl) {
		t.Fatal("the thief did not get to run the peer's second task")
	}
	if got, want := read(), (counts{attempts: 2, steals: 1, split: 1, job1: 1}); got != want {
		t.Fatalf("after an executed intra-domain steal: %+v, want %+v", got, want)
	}
	// The same across the boundary, charged to the other job.
	if tk, fl = thief.stealOnce(); tk != &far.task || !thief.execCtx(tk, fl) {
		t.Fatal("the thief did not get to run the remote worker's task")
	}
	got := read()
	got.attempts = 0 // the dry peer tier and a random remote offset: 3 or 4 more
	if want := (counts{steals: 2, split: 2, job1: 1, job2: 1}); got != want {
		t.Fatalf("after an executed cross-domain steal: %+v, want %+v", got, want)
	}
	if st := rt.Stats(); st.IntraSteals != 1 || st.CrossSteals != 1 {
		t.Fatalf("locality split %d/%d, want 1/1", st.IntraSteals, st.CrossSteals)
	}

	evs := stealEvents(rt.StopProfile())
	want := []profile.Event{
		{Task: near.id(), Cross: false, Job: j1.ID()},
		{Task: far.id(), Cross: true, Job: j2.ID()},
	}
	if len(evs) != len(want) {
		t.Fatalf("trace has %d steal events, want %d (none for the task the toucher ran): %v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Task != want[i].Task || ev.Cross != want[i].Cross || ev.Job != want[i].Job ||
			ev.Steal != Hierarchical || ev.Worker != int32(thief.id) {
			t.Errorf("steal event %d = %v, want task %d cross=%v job %d, %v, on the thief",
				i, ev, want[i].Task, want[i].Cross, want[i].Job, Hierarchical)
		}
	}
	if near.Touch(peer)+far.Touch(remote)+j1.Wait()+j2.Wait() != 2 {
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
// profiling the whole run, on both topologies: Stats.Steals, the trace's
// KindSteal count and the per-job counts plus the job-less steals are one
// number, and no stolen task has two steal events, or a steal event and an
// inline touch (a thief that lost the task to its toucher stole nothing), or
// a steal event and no execution. Helped tasks obey the same law: a task
// stolen while its worker helped is a steal only, so Stats.HelpedTasks, the
// trace's KindHelp count and the per-job plus job-less helps are one number.
func TestStealCountedOnceLive(t *testing.T) {
	for _, topo := range stealTopologies(t) {
		rt := New(WithWorkers(4), WithTopology(topo), WithSeed(11))
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		var jobSteals, jobHelped int64
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
				js := j.Stats()
				jobSteals += js.Steals
				jobHelped += js.HelpedTasks
			}
		}
		tr := rt.StopProfile()
		st := rt.Stats()
		rt.Shutdown()
		if st.Steals == 0 {
			t.Fatalf("%s: no steal in 200 rounds at 4 workers", topo.Source)
		}

		stolen := map[uint64]int{}
		inline := map[uint64]bool{}
		begun := map[uint64]bool{}
		var jobless, cross, helped, joblessHelped int64
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case profile.KindHelp:
				helped++
				if ev.Job == 0 {
					joblessHelped++
				}
			case profile.KindSteal:
				stolen[ev.Task]++
				if ev.Job == 0 {
					jobless++
				}
				if ev.Cross {
					cross++
				}
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
				t.Errorf("%s: task %d: %d steal events, inline touch %v, began %v — want 1, false, true",
					topo.Source, id, n, inline[id], begun[id])
			}
		}
		if n := int64(len(stealEvents(tr))); st.Steals != n || st.IntraSteals+st.CrossSteals != n ||
			jobSteals+jobless != n || st.CrossSteals != cross {
			t.Fatalf("%s: Stats.Steals %d, intra+cross %d+%d, per-job %d + job-less %d, trace %d steal events (%d cross) — want one number",
				topo.Source, st.Steals, st.IntraSteals, st.CrossSteals, jobSteals, jobless, n, cross)
		}
		if st.HelpedTasks != helped || jobHelped+joblessHelped != helped {
			t.Fatalf("%s: Stats.HelpedTasks %d, per-job %d + job-less %d, trace %d help events — want one number",
				topo.Source, st.HelpedTasks, jobHelped, joblessHelped, helped)
		}
		if topo.NumDomains() == 1 && st.CrossSteals != 0 {
			t.Fatalf("flat topology counted %d cross-domain steals", st.CrossSteals)
		}
	}
}

// TestStealVictimUniformOnFlat: where all workers share one domain the
// runtime's steal rule is the theorem's — every other worker is a peer, none
// is remote, and the first victim of a sweep is uniform over them. (A sweep
// that draws its offset over all n workers and skips the thief visits the
// worker after the thief first with probability 2/n.)
func TestStealVictimUniformOnFlat(t *testing.T) {
	rt := bareRuntimeOn(4, topology.Flat(4))
	if rt.StealPolicy() != RandomSingle {
		t.Fatalf("flat topology steals %v, want %v", rt.StealPolicy(), RandomSingle)
	}
	for _, w := range rt.workers {
		if len(w.peers) != 3 || len(w.remote) != 0 {
			t.Fatalf("worker %d: %d peers, %d remote — want 3 and 0", w.id, len(w.peers), len(w.remote))
		}
	}
	thief := rt.workers[0]
	holder := map[*task]*W{}
	for _, v := range thief.peers {
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
			t.Fatalf("draw %d: a steal on one domain came with flags %#x, want execStolen alone", i, fl)
		}
		first[v.id]++
		v.dq.PushBottom(tk) // hand it back: every draw sees three full victims
	}
	for _, v := range thief.peers {
		if n := first[v.id]; n < draws/3*9/10 || n > draws/3*11/10 {
			t.Errorf("worker %d was robbed first in %d of %d sweeps, want a third ±10%% (%v)", v.id, n, draws, first)
		}
	}
	if got := bareRuntimeOn(4, synth(t, "2x2")).StealPolicy(); got != Hierarchical {
		t.Fatalf("2x2 topology steals %v, want %v", got, Hierarchical)
	}
}

// TestHierarchicalProbesPeersFirst drives the tier order by hand on a 2x2
// layout (domains [0 0 1 1]): with one task on the thief's domain peer and
// one on a remote worker, the first steal must take the peer's, come without
// the cross-domain flag and count intra-domain once the thief has run it; only
// with the peer dry may the thief cross the boundary, and that steal must come
// flagged execCross and count cross-domain. Swapping the two stealScan calls
// in stealOnce fails the first half.
func TestHierarchicalProbesPeersFirst(t *testing.T) {
	rt := bareRuntimeOn(4, synth(t, "2x2"))
	for i, want := range []int{0, 0, 1, 1} {
		if got := rt.workers[i].domain; got != want {
			t.Fatalf("worker %d in domain %d, want %d", i, got, want)
		}
	}
	thief, peer, remote := rt.workers[0], rt.workers[1], rt.workers[2]
	near := SpawnWith(rt, peer, ParentFirst, leafIntFn)
	far := SpawnWith(rt, remote, ParentFirst, leafIntFn)
	intra := func() int64 { return thief.tele.Load(telemetry.CStealsIntraDomain) }
	cross := func() int64 { return thief.tele.Load(telemetry.CStealsCrossDomain) }

	tk, fl := thief.stealOnce()
	if tk == nil {
		t.Fatal("stealOnce found nothing with work on a peer and on a remote worker")
	}
	if tk != &near.task {
		t.Fatalf("first steal took task %d, want the domain peer's task %d (remote's is %d)", tk.id(), near.id(), far.id())
	}
	thief.execCtx(tk, fl)
	if fl != execStolen || intra() != 1 || cross() != 0 {
		t.Fatalf("peer steal: flags %#x intra=%d cross=%d, want execStolen alone, 1, 0", fl, intra(), cross())
	}

	tk, fl = thief.stealOnce()
	if tk == nil {
		t.Fatal("stealOnce found nothing with the peer dry and work on a remote worker")
	}
	if tk != &far.task {
		t.Fatalf("second steal took task %d, want the remote worker's task %d", tk.id(), far.id())
	}
	thief.execCtx(tk, fl)
	if fl != execStolen|execCross || intra() != 1 || cross() != 1 {
		t.Fatalf("remote steal: flags %#x intra=%d cross=%d, want execStolen|execCross, 1, 1", fl, intra(), cross())
	}

	if tk, fl = thief.stealOnce(); tk != nil || fl != 0 {
		t.Fatalf("stealOnce on empty deques returned %p, flags %#x", tk, fl)
	}
	if v := near.Touch(peer) + far.Touch(remote); v != 2 {
		t.Fatalf("futures sum to %d, want 2", v)
	}
}

// TestSingleWorkerDeviationParity is the sim-vs-runtime parity check on a
// deterministic single-worker schedule: with one worker there is nobody to
// rob, so the measured deviation count and the P=1 simulator replay of the
// reconstructed DAG in every matrix cell — each fork under each steal policy —
// must all be exactly zero: the two layers agree on what the steal discipline
// cost.
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
	if rep.MeasuredDeviations != 0 {
		t.Fatalf("measured %d deviations on one worker, want 0", rep.MeasuredDeviations)
	}
	if len(rep.Matrix) != 2*len(policy.StealPolicies) {
		t.Fatalf("matrix has %d cells, want %d", len(rep.Matrix), 2*len(policy.StealPolicies))
	}
	for _, cell := range rep.Matrix {
		if cell.MaxDeviations != 0 {
			t.Fatalf("%v × %v: sim replay at P=1 predicts %d deviations, want 0 (parity broken)",
				cell.Fork, cell.Steal, cell.MaxDeviations)
		}
	}
}

// TestStealPolicyAccessor: the steal rule's name is read off where the
// workers landed — one domain, or a topology whose second domain no worker
// reached, is RandomSingle; workers across two domains are Hierarchical.
func TestStealPolicyAccessor(t *testing.T) {
	for _, tc := range []struct {
		workers int
		topo    *topology.Topology
		want    StealPolicy
	}{
		{1, topology.Flat(1), RandomSingle},
		{4, topology.Flat(4), RandomSingle},
		{2, synth(t, "2x2"), RandomSingle},
		{4, synth(t, "2x2"), Hierarchical},
	} {
		rt := New(WithWorkers(tc.workers), WithTopology(tc.topo))
		if got := rt.StealPolicy(); got != tc.want {
			t.Errorf("%d workers on %s: StealPolicy() = %v, want %v", tc.workers, tc.topo.Source, got, tc.want)
		}
		rt.Shutdown()
	}
}

// TestMatrixCoversAllCells: the profile report's (fork × steal) matrix must
// contain one cell per policy pair, with the envelope granted exactly at
// future-first × random-single (the computation is structured
// single-touch, so the bound applies there and only there).
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
	if len(rep.Matrix) != 2*len(policy.StealPolicies) {
		t.Fatalf("matrix has %d cells, want %d", len(rep.Matrix), 2*len(policy.StealPolicies))
	}
	seen := map[[2]uint8]bool{}
	for _, cell := range rep.Matrix {
		key := [2]uint8{uint8(cell.Fork), uint8(cell.Steal)}
		if seen[key] {
			t.Fatalf("duplicate matrix cell %v × %v", cell.Fork, cell.Steal)
		}
		seen[key] = true
		wantBound := cell.Fork == sim.FutureFirst && cell.Steal == sim.RandomSingle
		if (cell.Bound > 0) != wantBound {
			t.Errorf("cell %v × %v: bound=%d, envelope should be granted only at future-first × random-single",
				cell.Fork, cell.Steal, cell.Bound)
		}
	}
}
