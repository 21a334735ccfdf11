package runtime

import (
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

// TestStealPoliciesComputeCorrectly runs the same fib workload under every
// (fork discipline × steal policy) pair on several workers: the result must
// be identical everywhere — a steal policy moves work, it must never change
// what is computed.
func TestStealPoliciesComputeCorrectly(t *testing.T) {
	const n = 18
	ref := -1
	for _, d := range []Discipline{FutureFirst, ParentFirst} {
		for _, sp := range policy.StealPolicies {
			rt := New(WithWorkers(4), WithDiscipline(d), WithStealPolicy(sp), WithSeed(7))
			got := Run(rt, func(w *W) int { return profFib(rt, w, n) })
			rt.Shutdown()
			if ref == -1 {
				ref = got
			}
			if got != ref {
				t.Fatalf("fib(%d) under %v × %v = %d, want %d", n, d, sp, got, ref)
			}
		}
	}
}

// TestStealPolicyRecordedPerEvent: every traced steal must carry the steal
// policy the runtime was configured with, and the reconstruction's
// per-policy attribution must contain no other policy.
func TestStealPolicyRecordedPerEvent(t *testing.T) {
	for _, sp := range policy.StealPolicies {
		rt := New(WithWorkers(4), WithStealPolicy(sp), WithSeed(3))
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
		for _, ev := range tr.Events() {
			if ev.Kind != profile.KindSteal {
				continue
			}
			if ev.Steal != sp {
				t.Fatalf("steal event carries %v, runtime configured %v", ev.Steal, sp)
			}
			if ev.N < 1 || ev.N > stealBatchMax {
				t.Fatalf("steal event batch size %d out of range [1, %d]", ev.N, stealBatchMax)
			}
			if sp != StealHalf && ev.N != 1 {
				t.Fatalf("policy %v recorded batch size %d, want 1", sp, ev.N)
			}
		}
	}
}

// TestStealHalfNoDoubleAttribution is the regression test for the
// recordSteal double-attribution edge: a steal-half batch must contribute
// one deviation per *executed displaced task* — never one event per batch
// member at steal time, never two events for one task, and never an event
// for a task whose execution the thief lost to an inlining toucher.
func TestStealHalfNoDoubleAttribution(t *testing.T) {
	rt := New(WithWorkers(4), WithStealPolicy(StealHalf), WithSeed(11))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		Run(rt, func(w *W) int { return profFib(rt, w, 17) })
	}
	tr := rt.StopProfile()
	stats := rt.Stats()
	rt.Shutdown()

	stolen := map[uint64]int{}
	inline := map[uint64]bool{}
	begun := map[uint64]bool{}
	var traceSteals int64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case profile.KindSteal:
			stolen[ev.Task]++
			traceSteals++
		case profile.KindTouch:
			if ev.Mode == profile.ModeInline {
				inline[ev.Other] = true
			}
		case profile.KindBegin:
			begun[ev.Task] = true
		}
	}
	for id, n := range stolen {
		if n != 1 {
			t.Errorf("task %d has %d steal events, want exactly 1 per executed displaced task", id, n)
		}
		if inline[id] {
			t.Errorf("task %d recorded both a steal and an inline touch: the thief lost the exec race and displaced nothing", id)
		}
		if !begun[id] {
			t.Errorf("task %d recorded as stolen but never began executing", id)
		}
	}
	// Stats count stolen tasks at steal time; the trace counts executed
	// displaced tasks. A task can be batch-stolen and then claimed by a
	// toucher before the thief runs it, so the trace may record fewer —
	// but never more.
	if traceSteals > stats.Steals {
		t.Fatalf("trace records %d steal deviations, stats only %d stolen tasks", traceSteals, stats.Steals)
	}
}

// bareRuntime builds a Runtime with the given workers but WITHOUT starting
// worker loops: the test goroutine owns every W and can drive find/exec/
// stealFrom deterministically. Only the paths that never park may be used
// (worker-local pushes, steals, exec); Shutdown must not be called.
func bareRuntime(sp StealPolicy, workers int) *Runtime {
	return bareRuntimeOn(sp, workers, topology.Flat(workers))
}

// bareRuntimeOn is bareRuntime on an explicit topology, so a test can place
// workers in more than one locality domain.
func bareRuntimeOn(sp StealPolicy, workers int, topo *topology.Topology) *Runtime {
	rt := &Runtime{stealPolicy: sp, born: time.Now()}
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
		w := &W{rt: rt, id: i, dq: deque.NewPtr[task](64), tele: rt.tele.Row(i), domain: rt.assign.Domain[i], rng: uint64(i + 1), lastVictim: -1}
		if sp == StealHalf {
			w.stealBuf = make([]*task, stealBatchMax)
		}
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

// TestStealHalfBatchAccountingDeterministic drives one steal-half batch by
// hand on a loop-less runtime: worker 0 spawns six tasks, worker 1 robs it
// once (a batch of three), executes the first and drains the two parked
// extras from its own deque. Exactly three steal events must appear — one
// per executed displaced task — each tagged with the batch size, and the
// three undisturbed tasks must still be on the victim's deque.
func TestStealHalfBatchAccountingDeterministic(t *testing.T) {
	rt := bareRuntime(StealHalf, 2)
	w0, w1 := rt.workers[0], rt.workers[1]
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var futs []*Future[int]
	for i := 0; i < 6; i++ {
		futs = append(futs, SpawnWith(rt, w0, ParentFirst, leafIntFn))
	}
	if w0.dq.Len() != 6 {
		t.Fatalf("victim deque has %d tasks, want 6", w0.dq.Len())
	}

	first := w1.stealFrom(w0)
	if first == nil {
		t.Fatal("stealFrom found nothing on a full victim")
	}
	if first.stolenBatch != 3 {
		t.Fatalf("batch size = %d, want 3 (half of 6)", first.stolenBatch)
	}
	if w1.dq.Len() != 2 {
		t.Fatalf("thief parked %d extras, want 2", w1.dq.Len())
	}
	if w0.dq.Len() != 3 {
		t.Fatalf("victim left with %d tasks, want 3", w0.dq.Len())
	}
	if !w1.execCtx(first, 0) {
		t.Fatal("thief lost exec of an exclusively held task")
	}
	w1.recordSteal(first)
	for i := 0; i < 2; i++ {
		tk, stolen := w1.find()
		if tk == nil || !stolen {
			t.Fatalf("find() on parked extra %d = (%v, %v), want displaced task", i, tk, stolen)
		}
		if !w1.execCtx(tk, 0) {
			t.Fatal("thief lost exec of a parked extra")
		}
		w1.recordSteal(tk)
	}

	// The three survivors run on their owner — ordinary pops, no deviation.
	for i := 0; i < 3; i++ {
		tk, stolen := w0.find()
		if tk == nil || stolen {
			t.Fatalf("owner pop %d = (%v, stolen=%v), want own undisplaced task", i, tk, stolen)
		}
		w0.execCtx(tk, 0)
	}
	for _, f := range futs {
		if v := f.Touch(w0); v != 1 {
			t.Fatalf("future = %d, want 1", v)
		}
	}

	evs := stealEvents(rt.StopProfile())
	if len(evs) != 3 {
		t.Fatalf("trace has %d steal events, want exactly 3 (one per executed displaced task, not one per batch)", len(evs))
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if ev.N != 3 {
			t.Errorf("steal event N = %d, want batch size 3", ev.N)
		}
		if ev.Steal != StealHalf {
			t.Errorf("steal event policy = %v, want steal-half", ev.Steal)
		}
		if ev.Worker != 1 {
			t.Errorf("steal event on worker %d, want the thief (1)", ev.Worker)
		}
		if seen[ev.Task] {
			t.Errorf("task %d double-attributed", ev.Task)
		}
		seen[ev.Task] = true
	}
	if st := rt.Stats(); st.Steals != 3 {
		t.Errorf("Stats.Steals = %d, want 3", st.Steals)
	}
}

// TestStealHalfClaimedMidBatch is the other half of the double-attribution
// edge: a task claimed by an inlining toucher while the batch was in
// flight displaced nothing, so it must appear in no steal event and must
// shrink the recorded batch size.
func TestStealHalfClaimedMidBatch(t *testing.T) {
	rt := bareRuntime(StealHalf, 2)
	w0, w1 := rt.workers[0], rt.workers[1]
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var futs []*Future[int]
	for i := 0; i < 4; i++ {
		futs = append(futs, SpawnWith(rt, w0, ParentFirst, leafIntFn))
	}
	// The owner touches the second-oldest future: it executes inline while
	// its (now stale) pointer still sits in the deque.
	if v := futs[1].Touch(w0); v != 1 {
		t.Fatal("inline touch failed")
	}

	first := w1.stealFrom(w0) // Len 4 → batch want 2 → takes futs[0], futs[1](claimed)
	if first == nil {
		t.Fatal("stealFrom found nothing")
	}
	if first != &futs[0].task {
		t.Fatal("thief should hold the oldest unclaimed task")
	}
	if first.stolenBatch != 1 {
		t.Fatalf("recorded batch = %d, want 1 (the claimed task displaced nothing)", first.stolenBatch)
	}
	if w1.dq.Len() != 0 {
		t.Fatalf("thief parked %d extras, want 0", w1.dq.Len())
	}
	if !w1.execCtx(first, 0) {
		t.Fatal("thief lost exec")
	}
	w1.recordSteal(first)

	for {
		tk, _ := w0.find()
		if tk == nil {
			break
		}
		w0.execCtx(tk, 0)
	}
	for i, f := range futs {
		if i == 1 {
			continue // already touched
		}
		if v := f.Touch(w0); v != 1 {
			t.Fatalf("future %d = %d, want 1", i, v)
		}
	}

	evs := stealEvents(rt.StopProfile())
	if len(evs) != 1 {
		t.Fatalf("trace has %d steal events, want 1", len(evs))
	}
	if evs[0].Task != futs[0].id || evs[0].N != 1 {
		t.Fatalf("steal event = task %d N=%d, want task %d N=1", evs[0].Task, evs[0].N, futs[0].id)
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Errorf("Stats.Steals = %d, want 1 (claimed batch member not counted)", st.Steals)
	}
}

// TestLastVictimAffinityCaching drives the affinity cache by hand: a
// successful steal must pin the victim, a dry revisit must unpin it.
func TestLastVictimAffinityCaching(t *testing.T) {
	rt := bareRuntime(LastVictimAffinity, 3)
	w0, w2 := rt.workers[0], rt.workers[2]
	f1 := SpawnWith(rt, w0, ParentFirst, leafIntFn)
	f2 := SpawnWith(rt, w0, ParentFirst, leafIntFn)

	tk := w2.stealOnce()
	if tk == nil {
		t.Fatal("stealOnce found nothing")
	}
	if w2.lastVictim != 0 {
		t.Fatalf("lastVictim = %d after stealing from worker 0, want 0", w2.lastVictim)
	}
	w2.execCtx(tk, 0)
	// Second steal: the cache points at worker 0, which still has work.
	tk = w2.stealOnce()
	if tk == nil {
		t.Fatal("affinity revisit found nothing on a non-empty cached victim")
	}
	w2.execCtx(tk, 0)
	if w2.lastVictim != 0 {
		t.Fatalf("lastVictim = %d, want 0 retained", w2.lastVictim)
	}
	// Third sweep: every deque is empty — the dry visit must clear the pin.
	if tk = w2.stealOnce(); tk != nil {
		t.Fatalf("stealOnce on empty deques returned %v", tk)
	}
	if w2.lastVictim != -1 {
		t.Fatalf("lastVictim = %d after dry sweep, want -1", w2.lastVictim)
	}
	f1.Touch(w0)
	f2.Touch(w0)
}

// TestHierarchicalProbesPeersFirst drives the hierarchical tier order by
// hand on a 2x2 layout (domains [0 0 1 1]): with one task on the thief's
// domain peer and one on a remote worker, the first steal must take the
// peer's and count intra-domain; only with the peer dry may the thief cross
// the boundary, and that steal must count cross-domain. Swapping the two
// stealScan calls in stealOnce fails the first half.
func TestHierarchicalProbesPeersFirst(t *testing.T) {
	topo, err := topology.Synthetic("2x2")
	if err != nil {
		t.Fatal(err)
	}
	rt := bareRuntimeOn(Hierarchical, 4, topo)
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

	tk := thief.stealOnce()
	if tk == nil {
		t.Fatal("stealOnce found nothing with work on a peer and on a remote worker")
	}
	if tk.id != near.id {
		t.Fatalf("first steal took task %d, want the domain peer's task %d (remote's is %d)", tk.id, near.id, far.id)
	}
	if tk.stolenCross || intra() != 1 || cross() != 0 {
		t.Fatalf("peer steal: stolenCross=%v intra=%d cross=%d, want false 1 0", tk.stolenCross, intra(), cross())
	}
	thief.execCtx(tk, 0)

	tk = thief.stealOnce()
	if tk == nil {
		t.Fatal("stealOnce found nothing with the peer dry and work on a remote worker")
	}
	if tk.id != far.id {
		t.Fatalf("second steal took task %d, want the remote worker's task %d", tk.id, far.id)
	}
	if !tk.stolenCross || intra() != 1 || cross() != 1 {
		t.Fatalf("remote steal: stolenCross=%v intra=%d cross=%d, want true 1 1", tk.stolenCross, intra(), cross())
	}
	thief.execCtx(tk, 0)

	if tk = thief.stealOnce(); tk != nil {
		t.Fatalf("stealOnce on empty deques returned task %d", tk.id)
	}
	if v := near.Touch(peer) + far.Touch(remote); v != 2 {
		t.Fatalf("futures sum to %d, want 2", v)
	}
}

// TestSingleWorkerDeviationParity is the sim-vs-runtime parity check on a
// deterministic single-worker schedule: with one worker there is nobody to
// rob, so under every steal policy the measured deviation count and the
// P=1 simulator replay of the reconstructed DAG must both be exactly zero
// — the two layers agree on what the steal discipline cost.
func TestSingleWorkerDeviationParity(t *testing.T) {
	for _, sp := range policy.StealPolicies {
		rt := New(WithWorkers(1), WithStealPolicy(sp))
		if err := rt.StartProfile(); err != nil {
			t.Fatal(err)
		}
		Run(rt, func(w *W) int { return profFib(rt, w, 15) })
		rep, err := rt.ProfileReport(profile.Options{
			P: 1, Trials: 2, Steal: sp, NoMatrix: true,
		})
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", sp, err)
		}
		if rep.MeasuredDeviations != 0 {
			t.Fatalf("%v: measured %d deviations on one worker, want 0", sp, rep.MeasuredDeviations)
		}
		for _, d := range rep.Sim.Deviations {
			if d != 0 {
				t.Fatalf("%v: sim replay at P=1 predicts %d deviations, want 0 (parity broken)", sp, d)
			}
		}
		if rep.Sim.Steal != sp {
			t.Fatalf("sim replay ran %v, want %v", rep.Sim.Steal, sp)
		}
	}
}

// TestWithStealPolicyValidates: an undefined steal policy must be rejected
// at construction, like an undefined discipline.
func TestWithStealPolicyValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithStealPolicy(9) should panic")
		}
	}()
	New(WithStealPolicy(policy.StealPolicy(9)))
}

// TestStealPolicyAccessor: the configured policy is visible on the runtime
// and defaults to RandomSingle.
func TestStealPolicyAccessor(t *testing.T) {
	rt := New(WithWorkers(1))
	if rt.StealPolicy() != RandomSingle {
		t.Fatalf("default steal policy = %v, want RandomSingle", rt.StealPolicy())
	}
	rt.Shutdown()
	rt = New(WithWorkers(1), WithStealPolicy(LastVictimAffinity))
	if rt.StealPolicy() != LastVictimAffinity {
		t.Fatalf("StealPolicy() = %v", rt.StealPolicy())
	}
	rt.Shutdown()
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
