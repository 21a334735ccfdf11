package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestHistBucketBoundaries pins the bucket layout: power-of-two edges, one
// underflow bucket, and exact placement at every boundary value.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.bucket {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Boundaries and buckets must agree: every bucket's bounds land back in
	// the bucket, and lower = previous upper + 1.
	for i := 1; i < 63; i++ {
		lo, hi := bucketLower(i), BucketUpper(i)
		if histBucket(lo) != i || histBucket(hi) != i {
			t.Errorf("bucket %d bounds [%d, %d] do not map back to the bucket", i, lo, hi)
		}
		if lo != BucketUpper(i-1)+1 {
			t.Errorf("bucket %d lower %d != bucket %d upper %d + 1", i, lo, i-1, BucketUpper(i-1))
		}
	}
}

// TestHistCountSumMean checks the exact (non-bucketed) aggregates.
func TestHistCountSumMean(t *testing.T) {
	var h Histogram
	vals := []int64{1, 5, 100, 1000, 0}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if got := s.Count(); got != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", got, len(vals))
	}
	if s.Sum != sum {
		t.Fatalf("Sum = %d, want %d", s.Sum, sum)
	}
	if got, want := s.Mean(), float64(sum)/float64(len(vals)); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

// TestHistMergeSub: Merge is bucket-wise addition, Sub recovers a delta
// window, and both round-trip.
func TestHistMergeSub(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 100; i++ {
		a.Observe(i * 7)
	}
	for i := int64(1); i <= 50; i++ {
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	m := sa.Merge(sb)
	if m.Count() != sa.Count()+sb.Count() {
		t.Fatalf("merged Count = %d, want %d", m.Count(), sa.Count()+sb.Count())
	}
	if m.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged Sum = %d, want %d", m.Sum, sa.Sum+sb.Sum)
	}
	back := m.Sub(sb)
	if back != sa {
		t.Fatalf("Merge then Sub did not round-trip")
	}
	// Delta window on one histogram: observe more, subtract the earlier
	// snapshot, get exactly the new samples.
	pre := a.Snapshot()
	a.Observe(12345)
	a.Observe(67890)
	d := a.Snapshot().Sub(pre)
	if d.Count() != 2 || d.Sum != 12345+67890 {
		t.Fatalf("delta window = count %d sum %d, want 2 / %d", d.Count(), d.Sum, 12345+67890)
	}
}

// TestHistQuantileAgreement: on the same sample set, the histogram's
// interpolated quantiles must agree with the exact Percentiles within the
// bucket error — the covering bucket's bounds (a factor-of-two band).
func TestHistQuantileAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var xs []float64
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~6 decades, the shape of a latency distribution
		// with a long tail.
		v := int64(math.Exp(rng.Float64() * 14))
		h.Observe(v)
		xs = append(xs, float64(v))
	}
	s := h.Snapshot()
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 99.9, 100} {
		exact := Percentiles(xs, p)[0]
		got := s.Quantile(p / 100)
		// The exact quantile's covering bucket bounds the estimate's error.
		b := histBucket(int64(exact))
		lo, hi := float64(bucketLower(b)), float64(BucketUpper(b))
		if got < lo || got > hi {
			t.Errorf("p%v: hist quantile %.1f outside exact value %.1f's bucket [%v, %v]",
				p, got, exact, lo, hi)
		}
	}
	// Monotonicity across quantiles.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile of previous rank %v", q, v, prev)
		}
		prev = v
	}
}

// TestHistQuantileSmall covers the degenerate shapes: empty, single sample,
// single bucket.
func TestHistQuantileSmall(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	h.Observe(42)
	s := h.Snapshot()
	got := s.Quantile(0.5)
	b := histBucket(42)
	if got < float64(bucketLower(b)) || got > float64(BucketUpper(b)) {
		t.Fatalf("single-sample Quantile = %v, want within bucket [%d, %d]",
			got, bucketLower(b), BucketUpper(b))
	}
}

// TestHistConcurrentObserve: parallel writers lose no samples (the -race
// build also checks the synchronization).
func TestHistConcurrentObserve(t *testing.T) {
	var h Histogram
	const gs, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count(); got != gs*per {
		t.Fatalf("concurrent Count = %d, want %d", got, gs*per)
	}
}
