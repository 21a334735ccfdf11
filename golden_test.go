package futurelocality_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	fl "futurelocality"
	"futurelocality/internal/adversary"
	"futurelocality/internal/cache"
	"futurelocality/internal/dag"
	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// Golden tests pin exact, fully deterministic outputs of the scripted
// executions and serializers. They exist to catch accidental semantic
// drift in the engine, the builders or the adversary scripts: all of the
// numbers below are consequences of the model's definitions, not tuning
// targets. If a deliberate model change breaks one, update the constant and
// justify it in the commit.

func TestGoldenFig6aScripted(t *testing.T) {
	g, info := graphs.Fig6a(16, 8, true)
	seq, err := sim.Sequential(g, sim.FutureFirst, 8, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, sim.Config{P: 2, Policy: sim.FutureFirst, CacheLines: 8,
		Control: adversary.Fig6a(info)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.TotalMisses; got != 39 {
		t.Fatalf("seq misses = %d, want 39", got)
	}
	if got := res.TotalMisses; got != 152 {
		t.Fatalf("par misses = %d, want 152", got)
	}
	if got := sim.Deviations(seq.SeqOrder(), res); got != 34 {
		t.Fatalf("deviations = %d, want 34", got)
	}
	if res.Steals != 1 || res.Stolen[0] != info.U1 {
		t.Fatalf("steals = %d stolen %v, want 1×u1=%d", res.Steals, res.Stolen, info.U1)
	}
}

func TestGoldenFig8Scripted(t *testing.T) {
	g, info := graphs.Fig8(4, 12, 6, true)
	seq, err := sim.Sequential(g, sim.ParentFirst, 6, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(g, sim.Config{P: 2, Policy: sim.ParentFirst, CacheLines: 6,
		Control: adversary.OneSteal(info.R, info.SRoot)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalMisses != 56 {
		t.Fatalf("seq misses = %d, want 56", seq.TotalMisses)
	}
	if res.TotalMisses != 672 {
		t.Fatalf("par misses = %d, want 672", res.TotalMisses)
	}
	if got := sim.Deviations(seq.SeqOrder(), res); got != 245 {
		t.Fatalf("deviations = %d, want 245", got)
	}
}

func TestGoldenGraphShapes(t *testing.T) {
	cases := []struct {
		name                 string
		g                    *fl.Graph
		nodes, span, touches int
	}{
		{"Fig4", graphs.Fig4(), 13, 9, 2},
		{"Fig5a", graphs.Fig5a(), 12, 9, 2},
		{"Fig5b", graphs.Fig5b(), 13, 10, 2},
		{"ForkJoin d=4 w=3", graphs.ForkJoinTree(4, 3, false), 95, 17, 15},
		{"Fib 10 cut 3", graphs.Fib(10, 3), 415, 25, 108},
	}
	for _, tc := range cases {
		if got := tc.g.Len(); got != tc.nodes {
			t.Errorf("%s: nodes = %d, want %d", tc.name, got, tc.nodes)
		}
		if got := tc.g.Span(); got != int64(tc.span) {
			t.Errorf("%s: span = %d, want %d", tc.name, got, tc.span)
		}
		if got := tc.g.NumTouches(); got != tc.touches {
			t.Errorf("%s: touches = %d, want %d", tc.name, got, tc.touches)
		}
	}
}

func TestGoldenRandomStructuredStable(t *testing.T) {
	// The random generator must be stable across releases: the graph of a
	// fixed seed, its serialized bytes and its seeded schedule are part of
	// the golden surface (update only on a deliberate generator, codec or
	// simulator change). Seed 4 is a graph that forks — 20 threads — and
	// whose P = 4 run steals, so every pin below is a non-trivial number.
	g := fl.RandomStructured(4, fl.RandomConfig{MaxNodes: 120, MaxBlocks: 8})
	if g.Len() != 158 || g.Span() != 81 || g.NumThreads() != 20 || g.NumTouches() != 19 {
		t.Fatalf("seed-4 graph has %d nodes, span %d, %d threads, %d touches; want 158, 81, 20, 19",
			g.Len(), g.Span(), g.NumThreads(), g.NumTouches())
	}
	var buf bytes.Buffer
	if err := dag.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	const wantSum = "9a315a2d151186466cbe8bb29452f15d0d54df1a3451a1a2b7dcb4ff2f713fd2"
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != wantSum {
		t.Fatalf("serialized seed-4 graph: %d bytes, sha256 %s, want %s", buf.Len(), sum, wantSum)
	}
	seq, err := fl.Sequential(g, fl.FutureFirst, 4, fl.LRU)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Simulate(g, fl.SimConfig{P: 4, CacheLines: 4, Control: fl.RandomControl(99)})
	if err != nil {
		t.Fatal(err)
	}
	if d := fl.Deviations(seq.SeqOrder(), res); res.Steals != 19 || d != 36 || seq.TotalMisses != 63 || res.TotalMisses != 62 {
		t.Fatalf("steals %d, deviations %d, misses %d sequential / %d parallel; want 19, 36, 63 / 62",
			res.Steals, d, seq.TotalMisses, res.TotalMisses)
	}
}
