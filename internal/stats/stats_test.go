package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.N != 5 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestLogLogSlopeExactPowers(t *testing.T) {
	// y = 3 x^2 must fit slope 2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", got)
	}
	for i, x := range xs {
		ys[i] = 5 * x
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Fatalf("slope = %v, want 1", got)
	}
}

func TestLogLogSlopePowerLawProperty(t *testing.T) {
	f := func(a uint8, bSel uint8) bool {
		amp := 1 + float64(a%50)
		b := float64(bSel%5) / 2.0 // 0, .5, 1, 1.5, 2
		xs := []float64{2, 4, 8, 16, 32, 64}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = amp * math.Pow(x, b)
		}
		return math.Abs(LogLogSlope(xs, ys)-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	if !math.IsNaN(LogLogSlope([]float64{0, -1}, []float64{1, 2})) {
		t.Fatal("want NaN for unusable input")
	}
	got := LogLogSlope([]float64{0, 1, 2, 4}, []float64{9, 1, 2, 4})
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("slope = %v, want 1 (zero-x pair skipped)", got)
	}
}

func TestIntsConversion(t *testing.T) {
	out := Ints([]int64{1, 2, 3})
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("%v", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Add(1, 2.5)
	tb.Add("x", int64(7))
	out := tb.String()
	for _, want := range []string{"| a | b |", "|---|---|", "| 1 | 2.5 |", "| x | 7 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {87.5, 4.5},
	}
	for _, c := range cases {
		if got := Percentiles(xs, c.p)[0]; got != c.want {
			t.Fatalf("Percentiles(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentiles([]float64{7}, 99)[0]; got != 7 {
		t.Fatalf("single-sample percentile = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentiles on empty sample must panic")
		}
	}()
	Percentiles(nil, 50)
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	got := Percentiles(xs, 0, 50, 95, 100)
	for i, p := range []float64{0, 50, 95, 100} {
		if want := Percentiles(xs, p)[0]; got[i] != want {
			t.Fatalf("Percentiles[%d] = %v, alone Percentiles(%v) = %v", i, got[i], p, want)
		}
	}
}
