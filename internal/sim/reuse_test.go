package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"futurelocality/internal/cache"
)

// activeFor is a Control that lets the machine run for n sweeps and then
// starves it, so a run under a small MaxIdleSweeps ends in ErrStuck with
// nodes half executed and deques full — the worst an engine can be handed
// back in. It embeds RandomControl and overrides Active, so Run must not
// take it for one of the package's always-active controls.
type activeFor struct {
	n int64
	RandomControl
}

func (c *activeFor) Active(_ ProcID, v *View) bool { return v.step() < c.n }

// flicker is a Control whose Active varies by processor and by sweep: each
// processor sits out every third sweep, the processors out of step.
type flicker struct{ RandomControl }

func (c *flicker) Active(p ProcID, v *View) bool { return (v.step()+int64(p))%3 != 0 }

// The controls a reuseCase can run under; the zero value is a RandomControl.
const (
	ctrlRandom = iota
	ctrlAlways
	ctrlActiveFor // an activeFor that never starves the machine
	ctrlFlicker
)

// reuseCase is one run: a graph and what to run it under. The Control is
// made per engine (controls carry state), by control.
type reuseCase struct {
	seed     int64 // randomStructured's: 40 to 200 nodes
	annotate bool
	cfg      Config
	ctrl     int   // ctrlRandom, ctrlAlways, ctrlActiveFor or ctrlFlicker
	stuckAt  int64 // > 0: starve the machine after this many sweeps, whatever ctrl says
}

func (c reuseCase) control() Control {
	rc := NewRandomControl(c.seed)
	switch {
	case c.stuckAt > 0:
		return &activeFor{n: c.stuckAt, RandomControl: *rc}
	case c.ctrl == ctrlAlways:
		return AlwaysActive{}
	case c.ctrl == ctrlActiveFor:
		return &activeFor{n: math.MaxInt64, RandomControl: *rc}
	case c.ctrl == ctrlFlicker:
		return &flicker{*rc}
	}
	return rc
}

// engineState renders every field a run reads, as Reset leaves it. Of order
// and who only the lengths count: a run writes every entry before it reads
// it.
func engineState(e *Engine) string {
	p := e.cfg.P
	s := fmt.Sprint(e.when, len(e.who), len(e.order), e.assigned, len(e.deques), len(e.stolen), e.central,
		e.executed, e.steps, e.stealAtt, e.steals, e.pops)
	for q := 0; q < p; q++ {
		s += fmt.Sprint(" ", e.deques[q])
	}
	if e.cfg.CacheLines > 0 {
		s += fmt.Sprint(" replay set serves: ", e.set.Serves(cache.SetConfig{P: p, Kind: e.cfg.CacheKind, Lines: e.cfg.CacheLines}))
	}
	return s
}

// checkReuse resets reused for c and holds it to a new engine: the same state
// before the run, and the same result — or the same ErrStuck — after it. It
// holds the new engine's run to referenceRun's the same way.
func checkReuse(t *testing.T, reused *Engine, c reuseCase) {
	t.Helper()
	g := randomStructured(c.seed, c.annotate)
	cfg := c.cfg
	cfg.Control = c.control()
	ref, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	oracle, oracleErr := ref.referenceRun()
	want, wantErr := fresh.Run()
	got, gotErr := reused.Run()
	if oracleErr != nil || wantErr != nil || gotErr != nil {
		if fmt.Sprint(wantErr) != fmt.Sprint(oracleErr) {
			t.Fatalf("%+v: new engine returned %v, referenceRun %v", c, wantErr, oracleErr)
		}
		if !errors.Is(gotErr, ErrStuck) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: reused engine returned %v, new engine %v", c, gotErr, wantErr)
		}
		return
	}
	if err := got.Validate(g); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if w, o := fmt.Sprintf("%+v", *want), fmt.Sprintf("%+v", *oracle); w != o {
		t.Fatalf("%+v: result of the new engine\n got %s\nwant (referenceRun) %s", c, w, o)
	}
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
		t.Fatalf("%+v: result of the reused engine\n got %s\nwant %s", c, g, w)
	}
}

// TestEngineReuseMatchesFresh drives one engine through graphs of different
// sizes under configurations that differ in everything Reset must redo —
// processor count up and down, fork policy, the central queue, the miss count
// on, off, and of another policy and size, the control, and a run abandoned
// half way — and holds every run to a new engine's and to referenceRun's.
func TestEngineReuseMatchesFresh(t *testing.T) {
	var e Engine
	for _, c := range []reuseCase{
		{seed: 1, annotate: true, cfg: Config{P: 4, CacheLines: 8}},
		{seed: 2, cfg: Config{P: 2, Policy: ParentFirst}},
		{seed: 3, annotate: true, cfg: Config{P: 6, CacheLines: 8}},
		{seed: 4, annotate: true, cfg: Config{P: 4, CacheLines: 8, MaxIdleSweeps: 3}, stuckAt: 6},
		{seed: 5, annotate: true, cfg: Config{P: 3, CentralQueue: true, CacheLines: 4, CacheKind: cache.FIFO}},
		{seed: 4, cfg: Config{P: 5, CentralQueue: true, MaxIdleSweeps: 2}, stuckAt: 9},
		{seed: 6, annotate: true, cfg: Config{P: 4, ThiefStealsBottom: true, CacheLines: 4, CacheKind: cache.FIFO}},
		{seed: 1, annotate: true, cfg: Config{P: 1, CacheLines: 16}},
		{seed: 7, cfg: Config{P: 8, Policy: ParentFirst}},
		{seed: 8, annotate: true, cfg: Config{P: 3, CacheLines: 8}, ctrl: ctrlAlways},
		{seed: 9, cfg: Config{P: 5, Policy: ParentFirst}, ctrl: ctrlFlicker},
		{seed: 10, annotate: true, cfg: Config{P: 4, ThiefStealsBottom: true, CacheLines: 4}, ctrl: ctrlFlicker},
		{seed: 11, cfg: Config{P: 3, CentralQueue: true}, ctrl: ctrlFlicker},
		{seed: 12, annotate: true, cfg: Config{P: 6, CacheLines: 8}, ctrl: ctrlActiveFor},
		{seed: 1, annotate: true, cfg: Config{P: 4, CacheLines: 8}},
	} {
		checkReuse(t, &e, c)
	}
}

// fuzzCase decodes one run from fuzz bytes: knob bit 0 annotates the graph,
// bit 1 is the fork policy, bits 2–3 the control, bit 4 the central queue,
// bit 5 bottom-stealing and bits 6–7 the cache size; stuck's bit 0 starves the
// machine after 1 to 8 sweeps (bits 1–3) and bits 4–7 pick the cache policy.
func fuzzCase(seed int64, p, knobs, stuck uint8) reuseCase {
	c := reuseCase{seed: seed, annotate: knobs&1 == 1, ctrl: int(knobs >> 2 & 3), cfg: Config{
		P:                 1 + int(p%8),
		Policy:            ForkPolicy(knobs >> 1 & 1),
		CentralQueue:      knobs>>4&1 == 1,
		ThiefStealsBottom: knobs>>5&1 == 1,
		CacheLines:        []int{0, 0, 4, 8}[knobs>>6],
		CacheKind:         cache.Kinds[int(stuck>>4)%len(cache.Kinds)],
	}}
	if stuck&1 == 1 {
		c.stuckAt, c.cfg.MaxIdleSweeps = 1+int64(stuck>>1&7), 2
	}
	return c
}

// FuzzEngineReuse runs three decoded cases back to back on one engine, each
// held to a new engine's state and result and to referenceRun's result.
func FuzzEngineReuse(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0xc1), uint8(0), int64(2), uint8(1), uint8(0x0e), uint8(0), int64(3), uint8(5), uint8(0x8d), uint8(0))
	f.Add(int64(4), uint8(3), uint8(0xcd), uint8(0x0d), int64(5), uint8(2), uint8(0x91), uint8(0x10), int64(4), uint8(4), uint8(0x10), uint8(0x13))
	f.Add(int64(6), uint8(7), uint8(0x4d), uint8(0x20), int64(6), uint8(0), uint8(0xe1), uint8(0x30), int64(7), uint8(7), uint8(0x2c), uint8(0x05))
	f.Add(int64(8), uint8(3), uint8(0xc5), uint8(0), int64(9), uint8(5), uint8(0x8a), uint8(0x20), int64(10), uint8(2), uint8(0x14), uint8(0))
	f.Fuzz(func(t *testing.T, s1 int64, p1, k1, x1 uint8, s2 int64, p2, k2, x2 uint8, s3 int64, p3, k3, x3 uint8) {
		var e Engine
		checkReuse(t, &e, fuzzCase(s1, p1, k1, x1))
		checkReuse(t, &e, fuzzCase(s2, p2, k2, x2))
		checkReuse(t, &e, fuzzCase(s3, p3, k3, x3))
	})
}
