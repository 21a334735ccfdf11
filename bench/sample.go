package main

import (
	"math"
	"sort"
)

// The benchmark's own order statistics. They are kept here, apart from
// internal/stats, so that a change to the program cannot alter how the
// program is measured.

// percentile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between closest ranks, or NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// sample is one timed observation: when its operation was due, relative to
// the start of its phase, and the value observed.
type sample struct {
	at int64 // ns since phase start
	v  float64
}

// windowedPercentile cuts [0, span) into n equal windows by the samples'
// due times, takes the p-th percentile inside each window, and returns the
// median of those. A stall lands in one window and moves one value; the
// median over windows then reports the steady state, where a percentile
// over the whole phase would report the stall. Windows left empty (possible
// only on a scaled-down run) are skipped; with no samples it returns NaN.
func windowedPercentile(ss []sample, span int64, n int, p float64) float64 {
	if n < 1 || span <= 0 {
		return math.NaN()
	}
	wins := make([][]float64, n)
	for _, s := range ss {
		if s.at < 0 || s.at >= span {
			continue
		}
		i := int(s.at * int64(n) / span)
		wins[i] = append(wins[i], s.v)
	}
	var per []float64
	for _, w := range wins {
		if len(w) > 0 {
			per = append(per, percentile(w, p))
		}
	}
	return median(per)
}

// windowsFor picks the window count of a phase: windows of about half a
// second, which still hold a thousand jobs at the low rate, and at least
// three so that a median over them exists on a short run.
func windowsFor(spanNs int64) int {
	return max(3, int(spanNs/5e8))
}
