package stats

import (
	"math"
	"testing"
)

func TestHistZeroObservation(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	if h.N() != 2 || h.Sum() != 0 || h.HMin() != 0 || h.HMax() != 0 {
		t.Fatalf("zeros: n=%d sum=%d min=%d max=%d", h.N(), h.Sum(), h.HMin(), h.HMax())
	}
	bs := h.Buckets()
	if len(bs) != 1 || bs[0] != [3]int64{0, 0, 2} {
		t.Fatalf("zero bucket = %v", bs)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("p50 of zeros = %v", q)
	}
	// Negatives clamp into the zero bucket, not a panic or a sum skew.
	h.Observe(-7)
	if h.N() != 3 || h.Sum() != 0 {
		t.Fatalf("negative clamp: n=%d sum=%d", h.N(), h.Sum())
	}
}

func TestHistMaxIntBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxInt64)
	if h.HMax() != math.MaxInt64 || h.Sum() != math.MaxInt64 {
		t.Fatalf("max=%d sum=%d", h.HMax(), h.Sum())
	}
	bs := h.Buckets()
	if len(bs) != 1 {
		t.Fatalf("buckets = %v", bs)
	}
	lo, hi := bs[0][0], bs[0][1]
	if lo != 1<<62 || hi != math.MaxInt64 {
		t.Fatalf("top bucket bounds = [%d, %d], want [%d, %d]",
			lo, hi, int64(1)<<62, int64(math.MaxInt64))
	}
	if q := h.Quantile(0.99); q < 0 || q > math.MaxInt64 {
		t.Fatalf("quantile out of range: %v", q)
	}
}

// TestHistQuantile pins the documented estimate semantics of Quantile:
// p50/p95/p99 stay within the log2 bucket containing the exact order
// statistic (so at most 2x off), quantiles are monotone in q, and the
// extremes return the exact min and max.
func TestHistQuantile(t *testing.T) {
	h := NewHistogram()
	var sorted []int64
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
		sorted = append(sorted, i)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got := h.Quantile(q)
		exact := sorted[int(q*float64(len(sorted)))-1]
		lo, hi := bucketBounds(bucketOf(exact))
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("Quantile(%g) = %v, outside bucket [%d, %d] of exact %d", q, got, lo, hi, exact)
		}
		if got > 2*float64(exact) || got < float64(exact)/2 {
			t.Errorf("Quantile(%g) = %v, more than 2x from exact %d", q, got, exact)
		}
	}
	// Monotone non-decreasing across the whole range.
	prev := h.Quantile(0)
	for q := 0.05; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile not monotone: q=%g gives %v after %v", q, cur, prev)
		}
		prev = cur
	}
	// The extremes are exact, and out-of-range q clamps to them.
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want exact min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %v, want exact max 1000", got)
	}
	if h.Quantile(-0.5) != 1 || h.Quantile(1.5) != 1000 {
		t.Errorf("out-of-range q should clamp: %v, %v", h.Quantile(-0.5), h.Quantile(1.5))
	}
	// A single-value histogram reports that value at every quantile.
	one := NewHistogram()
	one.Observe(71)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 71 {
			t.Errorf("single-value Quantile(%g) = %v, want 71", q, got)
		}
	}
}

func TestHistEmptyRender(t *testing.T) {
	if s := NewHistogram().String(); s != "n=0" {
		t.Fatalf("empty String() = %q", s)
	}
	var nilHist *Histogram
	if s := nilHist.String(); s != "n=0" {
		t.Fatalf("nil String() = %q", s)
	}
	if got := NewHistogram().Buckets(); got != nil {
		t.Fatalf("empty Buckets() = %v", got)
	}
}
