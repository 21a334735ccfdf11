package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentiles returns the p-th percentile (p in [0, 100]) of xs for each
// requested p, by linear interpolation between closest ranks — the
// convention latency dashboards use, so a reported p99 matches what an
// operator expects — sorting the sample once however many ranks are read. It
// panics on an empty sample or a p outside [0, 100]. xs need not be sorted.
// It is the exact reference the histogram's bucketed quantiles are tested
// against, and only tests call it.
func Percentiles(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			panic(fmt.Sprintf("stats: Percentiles(p=%v)", p))
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			out[i] = sorted[lo]
			continue
		}
		frac := rank - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
