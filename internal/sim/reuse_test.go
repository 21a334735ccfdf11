package sim

import (
	"errors"
	"fmt"
	"testing"

	"futurelocality/internal/cache"
)

// activeFor is a Control that lets the machine run for n sweeps and then
// starves it, so a run under a small MaxIdleSweeps ends in ErrStuck with
// nodes half executed and deques full — the worst an engine can be handed
// back in.
type activeFor struct {
	n int64
	RandomControl
}

func (c *activeFor) Active(_ ProcID, v *View) bool { return v.Step() < c.n }

// reuseCase is one run: a graph and what to run it under. The Control is
// made per engine (controls carry state), by control.
type reuseCase struct {
	seed     int64 // randomStructured's: 40 to 200 nodes
	annotate bool
	cfg      Config
	stuckAt  int64 // > 0: starve the machine after this many sweeps
}

func (c reuseCase) control() Control {
	rc := NewRandomControl(c.seed)
	if c.stuckAt > 0 {
		return &activeFor{n: c.stuckAt, RandomControl: *rc}
	}
	return rc
}

// engineState renders every field a run reads, as Reset leaves it.
func engineState(e *Engine) string {
	p := e.cfg.P
	s := fmt.Sprint(e.waiting, e.when, e.who, e.assigned, e.lastVictim, len(e.deques), len(e.stolen), e.central.Len(),
		e.executed, e.seq, e.steps, e.stealAtt, e.steals, e.visits, e.pops, e.intra, e.cross)
	for q := 0; q < p; q++ {
		s += fmt.Sprint(" ", e.deques[q].Len(), len(e.orders[q]))
		if e.cfg.CacheLines > 0 {
			c := e.caches[q]
			s += fmt.Sprint(" ", c.Name(), c.Lines(), c.Misses(), c.Accesses())
		}
	}
	return s
}

// checkReuse resets reused for c and holds it to a new engine: the same state
// before the run, and the same result — or the same ErrStuck — after it.
func checkReuse(t *testing.T, reused *Engine, c reuseCase) {
	t.Helper()
	g := randomStructured(c.seed, c.annotate)
	cfg := c.cfg
	cfg.Control = c.control()
	fresh, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Control = c.control()
	if err := reused.Reset(g, cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := engineState(reused), engineState(fresh); got != want {
		t.Fatalf("%+v: state after Reset\n got %s\nwant %s", c, got, want)
	}
	want, wantErr := fresh.Run()
	got, gotErr := reused.Run()
	if wantErr != nil || gotErr != nil {
		if !errors.Is(gotErr, ErrStuck) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: reused engine returned %v, new engine %v", c, gotErr, wantErr)
		}
		return
	}
	if err := got.Validate(g); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
		t.Fatalf("%+v: result of the reused engine\n got %s\nwant %s", c, g, w)
	}
}

// TestEngineReuseMatchesFresh drives one engine through graphs of different
// sizes under configurations that differ in everything Reset must redo —
// processor count up and down, fork and steal policy, the affinity table,
// the central queue, in-engine caches on, off, and of another policy and
// size, and a run abandoned half way — and holds every run to a new engine's.
func TestEngineReuseMatchesFresh(t *testing.T) {
	var e Engine
	for _, c := range []reuseCase{
		{seed: 1, annotate: true, cfg: Config{P: 4, CacheLines: 8}},
		{seed: 2, cfg: Config{P: 2, Policy: ParentFirst, Steal: StealHalf}},
		{seed: 3, annotate: true, cfg: Config{P: 6, Steal: LastVictimAffinity, CacheLines: 8}},
		{seed: 4, annotate: true, cfg: Config{P: 4, Steal: LastVictimAffinity, CacheLines: 8, MaxIdleSweeps: 3}, stuckAt: 6},
		{seed: 5, annotate: true, cfg: Config{P: 3, CentralQueue: true, CacheLines: 4, CacheKind: cache.FIFO}},
		{seed: 4, cfg: Config{P: 5, CentralQueue: true, MaxIdleSweeps: 2}, stuckAt: 9},
		{seed: 6, annotate: true, cfg: Config{P: 4, Steal: Hierarchical, Domains: []int{0, 0, 1, 1}, ThiefStealsBottom: true, CacheLines: 4, CacheKind: cache.FIFO}},
		{seed: 1, annotate: true, cfg: Config{P: 1, CacheLines: 16}},
		{seed: 7, cfg: Config{P: 8, Steal: StealHalf}},
		{seed: 1, annotate: true, cfg: Config{P: 4, CacheLines: 8}},
	} {
		checkReuse(t, &e, c)
	}
}

// fuzzCase decodes one run from fuzz bytes.
func fuzzCase(seed int64, p, knobs, stuck uint8) reuseCase {
	c := reuseCase{seed: seed, annotate: knobs&1 == 1, cfg: Config{
		P:                 1 + int(p%8),
		Policy:            ForkPolicy(knobs >> 1 & 1),
		Steal:             StealPolicies[int(knobs>>2&3)%len(StealPolicies)],
		CentralQueue:      knobs>>4&1 == 1,
		ThiefStealsBottom: knobs>>5&1 == 1,
		CacheLines:        []int{0, 0, 4, 8}[knobs>>6],
		CacheKind:         cache.Kinds[int(stuck>>4)%len(cache.Kinds)],
	}}
	if stuck&1 == 1 {
		c.stuckAt, c.cfg.MaxIdleSweeps = 1+int64(stuck>>1&7), 2
	}
	if c.cfg.Steal == Hierarchical {
		for q := 0; q < c.cfg.P; q++ {
			c.cfg.Domains = append(c.cfg.Domains, q*2/c.cfg.P)
		}
	}
	return c
}

// FuzzEngineReuse runs three decoded cases back to back on one engine, each
// held to a new engine's state and result.
func FuzzEngineReuse(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0xc1), uint8(0), int64(2), uint8(1), uint8(0x06), uint8(0), int64(3), uint8(5), uint8(0x89), uint8(0))
	f.Add(int64(4), uint8(3), uint8(0xc9), uint8(0x0d), int64(5), uint8(2), uint8(0x91), uint8(0x10), int64(4), uint8(4), uint8(0x10), uint8(0x13))
	f.Add(int64(6), uint8(7), uint8(0x4d), uint8(0x20), int64(6), uint8(0), uint8(0xe1), uint8(0x30), int64(7), uint8(7), uint8(0x2c), uint8(0x05))
	f.Fuzz(func(t *testing.T, s1 int64, p1, k1, x1 uint8, s2 int64, p2, k2, x2 uint8, s3 int64, p3, k3, x3 uint8) {
		var e Engine
		checkReuse(t, &e, fuzzCase(s1, p1, k1, x1))
		checkReuse(t, &e, fuzzCase(s2, p2, k2, x2))
		checkReuse(t, &e, fuzzCase(s3, p3, k3, x3))
	})
}
