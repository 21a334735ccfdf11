package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
)

// randomStructured builds a small random structured single-touch graph
// locally (internal/graphs depends on this package, so it cannot be
// imported here).
func randomStructured(seed int64, annotate bool) *dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := dag.NewBuilder()
	budget := 40 + rng.Intn(160)
	blk := func() dag.BlockID {
		if !annotate {
			return dag.NoBlock
		}
		return dag.BlockID(rng.Intn(12))
	}
	var gen func(t *dag.Thread, depth int)
	gen = func(t *dag.Thread, depth int) {
		t.Access(blk())
		budget--
		var open []*dag.Thread
		lastFork := false
		for i := 0; i < 2+rng.Intn(8) && budget > 0; i++ {
			switch {
			case rng.Intn(4) == 0 && depth < 5 && budget > 3:
				c := t.Fork()
				gen(c, depth+1)
				open = append(open, c)
				lastFork = true
			case rng.Intn(3) == 0 && len(open) > 0:
				if lastFork {
					t.Access(blk())
					budget--
				}
				k := rng.Intn(len(open))
				t.Touch(open[k])
				open = append(open[:k], open[k+1:]...)
				budget--
				lastFork = false
			default:
				t.Access(blk())
				budget--
				lastFork = false
			}
		}
		for _, o := range open {
			if lastFork {
				t.Access(blk())
				budget--
			}
			t.Touch(o)
			budget--
			lastFork = false
		}
	}
	gen(b.Main(), 0)
	b.Main().Step()
	return b.MustBuild()
}

// TestPropertyOnlyTouchesAndRightChildrenDeviate is the empirical corollary
// of Lemma 7 / Section 5.1: under future-first scheduling of a structured
// single-touch computation, the only nodes that can deviate are touches and
// right children of forks — under ANY schedule, not just the proof's.
func TestPropertyOnlyTouchesAndRightChildrenDeviate(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		g := randomStructured(seed, false)
		seq, err := Sequential(g, FutureFirst, 0, cache.LRU)
		if err != nil {
			return false
		}
		p := 2 + int(pSel%7)
		eng, err := New(g, Config{P: p, Policy: FutureFirst, Control: NewRandomControl(seed * 31)})
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		return len(otherDeviations(g, seq.SeqOrder(), res)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// otherDeviations returns the deviated nodes of r that are neither touches
// (or joins) nor right children of forks — the two kinds Section 5.1 allows
// to deviate under future-first.
func otherDeviations(g *dag.Graph, seqOrder []dag.NodeID, r *Result) []dag.NodeID {
	allowed := make([]bool, g.Len())
	for _, ti := range g.Touches {
		allowed[ti.Node] = true
	}
	for id := range g.Nodes {
		if n := &g.Nodes[id]; n.IsFork() {
			allowed[n.ContChild()] = true
		}
	}
	var out []dag.NodeID
	for _, v := range DeviationNodes(seqOrder, r) {
		if !allowed[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestPropertyExtraMissesBoundedByDeviationsTimesC checks the bridge the
// paper takes from Acar–Blelloch–Blumofe: the number of additional cache
// misses of a work-stealing execution is at most C times the number of
// deviations (for LRU and any simple policy). Every theorem's miss bound
// rests on this inequality.
func TestPropertyExtraMissesBoundedByDeviationsTimesC(t *testing.T) {
	f := func(seed int64, pSel, cSel uint8) bool {
		g := randomStructured(seed, true)
		C := 2 + int(cSel%16)
		p := 2 + int(pSel%7)
		for _, pol := range []ForkPolicy{FutureFirst, ParentFirst} {
			seq, err := Sequential(g, pol, C, cache.LRU)
			if err != nil {
				return false
			}
			eng, err := New(g, Config{P: p, Policy: pol, CacheLines: C, Control: NewRandomControl(seed*17 + 3)})
			if err != nil {
				return false
			}
			res, err := eng.Run()
			if err != nil {
				return false
			}
			extra := res.TotalMisses - seq.TotalMisses
			dev := Deviations(seq.SeqOrder(), res)
			if extra > int64(C)*dev {
				t.Logf("seed=%d P=%d C=%d policy=%v: extra=%d > C·dev=%d",
					seed, p, C, pol, extra, int64(C)*dev)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoPrematureTouchesStructured: premature touches are
// impossible for structured computations under any schedule (the Figure 4
// caption's claim).
func TestPropertyNoPrematureTouchesStructured(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		g := randomStructured(seed, false)
		p := 1 + int(pSel%8)
		for _, pol := range []ForkPolicy{FutureFirst, ParentFirst} {
			eng, err := New(g, Config{P: p, Policy: pol, Control: NewRandomControl(seed + 7)})
			if err != nil {
				return false
			}
			res, err := eng.Run()
			if err != nil {
				return false
			}
			if PrematureTouches(g, res) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParallelAlwaysValidates: any random structured graph, any
// processor count, both policies — executions complete and respect
// dependencies.
func TestPropertyParallelAlwaysValidates(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		g := randomStructured(seed, true)
		p := 1 + int(pSel%12)
		for _, pol := range []ForkPolicy{FutureFirst, ParentFirst} {
			eng, err := New(g, Config{P: p, Policy: pol, CacheLines: 4, Control: NewRandomControl(seed)})
			if err != nil {
				return false
			}
			res, err := eng.Run()
			if err != nil {
				return false
			}
			if err := res.Validate(g); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySequentialDeterminism: the sequential execution is a pure
// function of (graph, policy).
func TestPropertySequentialDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		g := randomStructured(seed, true)
		a, err := Sequential(g, FutureFirst, 8, cache.LRU)
		if err != nil {
			return false
		}
		b, err := Sequential(g, FutureFirst, 8, cache.LRU)
		if err != nil {
			return false
		}
		ao, bo := a.SeqOrder(), b.SeqOrder()
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
		return a.TotalMisses == b.TotalMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStealPoliciesValidate replays random structured DAGs under
// both fork policies with the random-single thief: each run must execute
// every node exactly once in dependency order, echo its policies, and list
// each stolen node once.
func TestPropertyStealPoliciesValidate(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		g := randomStructured(seed, false)
		p := 2 + int(pSel%7)
		for _, fork := range []ForkPolicy{FutureFirst, ParentFirst} {
			eng, err := New(g, Config{P: p, Policy: fork, Steal: RandomSingle,
				Control: NewRandomControl(seed * 31)})
			if err != nil {
				return false
			}
			res, err := eng.Run()
			if err != nil {
				return false
			}
			if res.Validate(g) != nil {
				return false
			}
			if res.Steal != RandomSingle || res.Policy != fork {
				return false
			}
			if int64(len(res.Stolen)) != res.Steals {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySingleProcNoStealsAnyPolicy: with P = 1 there is nobody to
// rob, so the thief degenerates to the sequential execution — zero steals,
// zero deviations. This is the sim half of the runtime's single-worker
// parity test.
func TestPropertySingleProcNoStealsAnyPolicy(t *testing.T) {
	f := func(seed int64) bool {
		g := randomStructured(seed, false)
		seq, err := Sequential(g, FutureFirst, 0, cache.LRU)
		if err != nil {
			return false
		}
		eng, err := New(g, Config{P: 1, Policy: FutureFirst, Control: AlwaysActive{}})
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		return res.Steals == 0 && Deviations(seq.SeqOrder(), res) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidStealPolicyRejected: Reset refuses an undefined fork or steal
// policy — the retired steal values 1, 2 and 3 included — with an error
// that names the value.
func TestInvalidStealPolicyRejected(t *testing.T) {
	g := randomStructured(3, false)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{P: 2, Policy: ForkPolicy(2)}, "fork policy discipline(2)"},
		{Config{P: 2, Steal: StealPolicy(1)}, "steal policy stealpolicy(1)"},
		{Config{P: 2, Steal: StealPolicy(2)}, "steal policy stealpolicy(2)"},
		{Config{P: 2, Steal: StealPolicy(3)}, "steal policy stealpolicy(3)"},
		{Config{P: 2, Steal: StealPolicy(9)}, "steal policy stealpolicy(9)"},
	} {
		if _, err := New(g, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("New(%+v) = %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
}

// TestStealStringRoundTrip: the one thief has its name.
func TestStealStringRoundTrip(t *testing.T) {
	if !RandomSingle.valid() || RandomSingle.String() != "random-single" {
		t.Fatalf("RandomSingle: Valid = %v, String = %q", RandomSingle.valid(), RandomSingle.String())
	}
}

func TestStealInvalid(t *testing.T) {
	for _, s := range []StealPolicy{1, 2, 3, 9} {
		if s.valid() {
			t.Fatalf("StealPolicy(%d) must not be valid", uint8(s))
		}
	}
	if s := StealPolicy(9).String(); s != "stealpolicy(9)" {
		t.Fatalf("String = %q", s)
	}
}
