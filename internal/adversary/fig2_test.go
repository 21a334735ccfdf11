package adversary

import (
	"testing"

	"futurelocality/internal/graphs"
	"futurelocality/internal/sim"
)

// TestFig2SingleTouchSwing verifies the Figure 2 gadget: one displaced
// touch swings the miss count by Ω(C·n). Standalone, the displaced scenario
// is the sequential parent-first execution (Ext waits in the deque at u3);
// one steal of Ext repairs it, so misses(sequential) - misses(one steal) =
// Ω(C·n).
func TestFig2SingleTouchSwing(t *testing.T) {
	for _, tc := range []struct{ n, C int }{{16, 8}, {32, 8}, {32, 16}} {
		g, info := graphs.Fig2(tc.n, tc.C, true)
		res, seq := run(t, g, OneSteal(info.Root, info.Ext), 2, sim.ParentFirst, tc.C)
		if res.Steals != 1 {
			t.Fatalf("steals = %d, want 1", res.Steals)
		}
		// Sequential thrashes: ~C·n misses. Stolen run is clean: O(C + n).
		if seq.TotalMisses < int64(tc.C*(tc.n-2)/2) {
			t.Fatalf("n=%d C=%d: sequential misses = %d, want Ω(C·n) thrash",
				tc.n, tc.C, seq.TotalMisses)
		}
		if res.TotalMisses > int64(3*tc.C+2*tc.n) {
			t.Fatalf("n=%d C=%d: stolen-run misses = %d, want O(C + n)",
				tc.n, tc.C, res.TotalMisses)
		}
		swing := seq.TotalMisses - res.TotalMisses
		if swing < int64(tc.C*(tc.n-4)/2) {
			t.Fatalf("n=%d C=%d: swing = %d, want Ω(C·n)", tc.n, tc.C, swing)
		}
	}
}

// TestFig2FutureFirstImmune: the same gadget under future-first has no
// displaced-touch hazard — both sequential and stolen runs stay O(C + n).
func TestFig2FutureFirstImmune(t *testing.T) {
	n, C := 32, 8
	g, _ := graphs.Fig2(n, C, true)
	seq, err := sim.Sequential(g, sim.FutureFirst, C, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalMisses > int64(3*C+2*n) {
		t.Fatalf("future-first sequential misses = %d, want O(C + n)", seq.TotalMisses)
	}
	for seed := int64(1); seed <= 8; seed++ {
		eng, err := sim.New(g, sim.Config{P: 2, Policy: sim.FutureFirst, CacheLines: C,
			Control: sim.NewRandomControl(seed)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalMisses > 2*seq.TotalMisses+int64(C) {
			t.Fatalf("seed %d: future-first parallel misses = %d vs seq %d",
				seed, res.TotalMisses, seq.TotalMisses)
		}
	}
}
