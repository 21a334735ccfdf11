package stats

// Log-bucketed latency histogram: the always-on aggregation the telemetry
// layer keeps instead of retaining samples. Buckets are powers of two —
// bucket 0 holds non-positive values, bucket i (1..64) holds values whose
// bit length is i, i.e. the half-open magnitude decade [2^(i-1), 2^i).
// Observing is two atomic adds (bucket count and running sum), so the
// recorder can sit on the job-completion path of a serve-rate workload
// without locks, allocation, or sampling; percentiles are read off the
// bucket counts by within-bucket linear interpolation, which bounds the
// error of any reported quantile by the bucket width (a factor of two) —
// the usual trade a production latency histogram makes (HdrHistogram,
// Prometheus) and plenty for "did p99 double?" questions.

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count: one underflow bucket (index 0, values
// <= 0) plus one bucket per bit length of an int64 magnitude.
const histBuckets = 65

// Histogram is a concurrent log-bucketed histogram of int64 samples
// (typically nanoseconds). The zero value is ready to use; writers call
// Observe from any goroutine, readers take Snapshot. It never allocates
// after construction and is embeddable by value.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64
}

// histBucket returns the bucket index of v: 0 for v <= 0, else the bit
// length of v (so 1 → bucket 1, [2,3] → bucket 2, [4,7] → bucket 3, ...).
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one sample: one atomic add on its bucket, one on the sum.
func (h *Histogram) Observe(v int64) {
	h.counts[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the counters into an immutable, mergeable snapshot.
// Concurrent with Observe the copy is approximate (counts and sum may be
// skewed by in-flight samples), like every live-counter read.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram: plain counters that
// can be merged (combining shards or accumulating windows) and subtracted
// (rate windows), plus quantile and mean readers.
type HistSnapshot struct {
	// Counts holds per-bucket sample counts (see histBucket for boundaries).
	Counts [histBuckets]uint64
	// Sum is the running sum of all observed values.
	Sum int64
}

// BucketUpper returns the inclusive upper bound of bucket i: 0 for the
// underflow bucket, 2^i - 1 otherwise (saturating at MaxInt64 — the top
// bucket cannot be exceeded by an int64 sample).
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return math.MaxInt64
	default:
		return 1<<uint(i) - 1
	}
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Count returns the total number of observed samples.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the exact sample mean (the sum is tracked exactly, not
// bucketed), or 0 for an empty snapshot.
func (s HistSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Merge returns the bucket-wise sum of two snapshots (shard or window
// accumulation; the buckets are identical by construction, which is the
// point of a fixed log-bucketed layout).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] += o.Counts[i]
	}
	out.Sum += o.Sum
	return out
}

// Sub returns the bucket-wise difference s - prev, the delta window between
// two snapshots of the same histogram (counts are monotone, so the result
// is a valid snapshot of the samples observed between the two).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := s
	for i := range out.Counts {
		out.Counts[i] -= prev.Counts[i]
	}
	out.Sum -= prev.Sum
	return out
}

// Quantile returns the q-th quantile (q in [0, 1]) estimated by linear
// interpolation inside the covering bucket; the estimate is within the
// bucket's bounds, so it errs from the exact sample quantile by at most
// the bucket width (a factor of two in value). Returns 0 for an empty
// snapshot; panics on q outside [0, 1].
func (s HistSnapshot) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: Quantile out of range")
	}
	n := s.Count()
	if n == 0 {
		return 0
	}
	// The rank convention matches Percentiles: rank r in [0, n-1], the
	// r-th smallest sample (interpolated).
	rank := q * float64(n-1)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		// Samples of this bucket occupy ranks [cum, cum+c).
		if rank < cum+float64(c) {
			lo, hi := float64(bucketLower(i)), float64(BucketUpper(i))
			if c == 1 || hi <= lo {
				return hi
			}
			// Spread the bucket's samples evenly across [lo, hi].
			frac := (rank - cum) / float64(c-1)
			return lo + (hi-lo)*frac
		}
		cum += float64(c)
	}
	return float64(BucketUpper(histBuckets - 1)) // unreachable: rank < n
}

// Quantiles returns one estimate per requested q — the multi-rank
// convenience mirroring Percentiles.
func (s HistSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.Quantile(q)
	}
	return out
}
