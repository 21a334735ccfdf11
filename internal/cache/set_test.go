package cache

import (
	"strings"
	"testing"

	"futurelocality/internal/dag"
)

// TestNewSetValidation: every configuration NewSet cannot build is an error
// naming the bad value, an undefined policy included.
func TestNewSetValidation(t *testing.T) {
	for _, c := range []struct {
		cfg  SetConfig
		want string
	}{
		{SetConfig{P: 0, Lines: 4}, "P = 0"},
		{SetConfig{P: 2, Lines: 0}, "0 lines"},
		{SetConfig{P: 2, Lines: 4, Domains: []int{0}}, "len(Domains) = 1"},
		{SetConfig{P: 2, Lines: 4, Domains: []int{0, -1}, LLCLines: 8}, "domain -1"},
		{SetConfig{P: 1, Lines: 4, Kind: 9}, "kind(9)"},
	} {
		if _, err := NewSet(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewSet(%+v) = %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
}

// TestReplayGoldenDeviatedSchedule is the hand-countable golden case of the
// cache-cost replay, on the two-thread fixture with window 1 and C = 4.
//
// Sequential (one worker, future-first order 0,1,2,3,4,5): the four distinct
// blocks {0,2,1,3} each miss cold once — 4 misses, everything after is a hit.
//
// Deviated two-worker schedule: worker 1 steals the future thread (nodes 2,3)
// while worker 0 runs the rest in order. Worker 0 cold-misses {0,2}; worker 1
// cold-misses {1,3}; then the touch (node 5, on worker 0) reads the future
// thread's frame block 1, which worker 0's cache never loaded — one more
// miss. Total 5, so the deviation costs exactly 1 extra miss: the consumed
// future value crossing the touch edge onto a cache that never saw it.
func TestReplayGoldenDeviatedSchedule(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	order := []dag.NodeID{0, 1, 2, 3, 4, 5}

	seqSet, err := NewSet(SetConfig{P: 1, Kind: LRU, Lines: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq := seqSet.Replay(fp, order, nil)
	if seq.TotalMisses != 4 {
		t.Fatalf("sequential misses = %d, want 4 (cold blocks only)", seq.TotalMisses)
	}

	par, err := NewSet(SetConfig{P: 2, Kind: LRU, Lines: 4})
	if err != nil {
		t.Fatal(err)
	}
	who := []int32{0, 0, 1, 1, 0, 0}
	out := par.Replay(fp, order, who)
	if out.TotalMisses != 5 {
		t.Fatalf("deviated misses = %d, want 5", out.TotalMisses)
	}
	if out.Misses[0] != 3 || out.Misses[1] != 2 {
		t.Fatalf("per-worker misses = %v, want [3 2]", out.Misses)
	}
	if extra := out.TotalMisses - seq.TotalMisses; extra != 1 {
		t.Fatalf("extra misses = %d, want exactly 1 (the touch's cold frame fetch)", extra)
	}

	// The undeviated two-worker schedule (everything on worker 0) pays the
	// sequential bill exactly.
	out0 := par.Replay(fp, order, []int32{0, 0, 0, 0, 0, 0})
	if out0.TotalMisses != seq.TotalMisses {
		t.Fatalf("undeviated misses = %d, want %d", out0.TotalMisses, seq.TotalMisses)
	}
}

// TestReplayLLCTier checks the shared-tier accounting on the same golden
// schedule: both workers in one domain share an LLC, so the touch's frame
// fetch misses privately but hits the LLC (worker 1 installed it) — only the
// four cold blocks reach memory.
func TestReplayLLCTier(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	s, err := NewSet(SetConfig{
		P: 2, Kind: LRU, Lines: 4,
		Domains: []int{0, 0}, LLCLines: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Replay(fp, []dag.NodeID{0, 1, 2, 3, 4, 5}, []int32{0, 0, 1, 1, 0, 0})
	if out.TotalMisses != 5 {
		t.Fatalf("private misses = %d, want 5", out.TotalMisses)
	}
	if out.LLCMisses != 4 {
		t.Fatalf("llc (memory) misses = %d, want 4 cold blocks", out.LLCMisses)
	}
}

// TestReplayLLCSeparateDomains puts the workers in distinct domains: with no
// shared tier between them, every private miss is also an LLC miss.
func TestReplayLLCSeparateDomains(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	s, err := NewSet(SetConfig{
		P: 2, Kind: LRU, Lines: 4,
		Domains: []int{0, 1}, LLCLines: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Replay(fp, []dag.NodeID{0, 1, 2, 3, 4, 5}, []int32{0, 0, 1, 1, 0, 0})
	if out.LLCMisses != out.TotalMisses {
		t.Fatalf("llc misses = %d, want %d (no sharing across domains)",
			out.LLCMisses, out.TotalMisses)
	}
}

// TestReplayResetsBetweenRuns checks that Replay is self-resetting: driving
// the same schedule twice yields the same bill, not an accumulated one.
func TestReplayResetsBetweenRuns(t *testing.T) {
	g := twoThreadGraph(t)
	fp := DeriveFootprint(g, 1)
	s, err := NewSet(SetConfig{P: 2, Kind: FIFO, Lines: 2})
	if err != nil {
		t.Fatal(err)
	}
	order := []dag.NodeID{0, 1, 2, 3, 4, 5}
	who := []int32{0, 0, 1, 1, 0, 0}
	first := s.Replay(fp, order, who)
	second := s.Replay(fp, order, who)
	if first.TotalMisses != second.TotalMisses || first.Accesses != second.Accesses {
		t.Fatalf("replays differ: %+v vs %+v", first, second)
	}
}

// TestFIFOSetEvictsFIFOInBothTiers: the shared tier has the set's policy. One
// worker, two private lines over three shared ones, the declared trace
// A B A C A D A B. FIFO privately: A and B miss, A hits, C evicts A, A evicts
// B, D evicts C, A hits, B evicts A — six misses (LRU would keep A throughout:
// five). The shared tier sees those six, A B C A D B: A, B, C miss, A hits, D
// evicts A — FIFO, for A was just used — and B hits: four reach memory. An
// LRU shared tier would evict B for D and miss on it again: five.
func TestFIFOSetEvictsFIFOInBothTiers(t *testing.T) {
	b := dag.NewBuilder()
	m := b.Main()
	const A, B, C, D = 10, 20, 30, 40
	order := []dag.NodeID{}
	for i, blk := range []dag.BlockID{A, B, A, C, A, D, A, B} {
		m.Access(blk)
		order = append(order, dag.NodeID(i))
	}
	fp := DeriveFootprint(b.MustBuild(), 1)
	s, err := NewSet(SetConfig{P: 1, Kind: FIFO, Lines: 2, LLCLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Replay(fp, order, nil)
	if out.TotalMisses != 6 {
		t.Errorf("private misses = %d, want 6 (FIFO)", out.TotalMisses)
	}
	if out.LLCMisses != 4 {
		t.Errorf("llc misses = %d, want 4 (FIFO; 5 is an LRU shared tier)", out.LLCMisses)
	}
}
