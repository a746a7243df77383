package stats

import (
	"fmt"
	"math"
)

// Histogram is a log2-bucketed histogram of non-negative integer
// observations — cycle costs, in practice. It trades exactness of
// percentiles (bucket-interpolated) for O(1) memory at any event volume,
// the same trade `perf kvm stat` and xentrace post-processing make. Exact
// count, sum, min and max are kept alongside the buckets.
//
// A nil *Histogram is valid: it observes nothing and reports zeros.
type Histogram struct {
	// buckets[0] counts zeros; buckets[b] (b >= 1) counts observations
	// in [2^(b-1), 2^b - 1].
	buckets []int64
	n       int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one observation (negatives are clamped to zero).
func (h *Histogram) Observe(x int64) {
	if h == nil {
		return
	}
	if x < 0 {
		x = 0
	}
	b := bucketOf(x)
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.n++
	h.sum += x
}

// bucketOf returns 0 for x == 0, else floor(log2(x)) + 1.
func bucketOf(x int64) int {
	b := 0
	for x > 0 {
		x >>= 1
		b++
	}
	return b
}

// bucketBounds returns the inclusive value range of bucket b. The top
// bucket (b = 63, holding observations >= 2^62) caps at MaxInt64 rather
// than computing 2^63 - 1 through signed wraparound.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	if b >= 63 {
		return 1 << 62, math.MaxInt64
	}
	return 1 << (b - 1), 1<<b - 1
}

// N returns the observation count.
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// HMin returns the smallest observation (0 when empty).
func (h *Histogram) HMin() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// HMax returns the largest observation (0 when empty).
func (h *Histogram) HMax() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// HMean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) HMean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the approximate q-quantile (0 <= q <= 1), linearly
// interpolated within the containing bucket and clamped to [min, max].
// These are bucket-bounded estimates, not exact order statistics: the
// log2 buckets only record which power-of-two range an observation fell
// in, so the returned value can land anywhere within the containing
// bucket — never above its upper bound, which makes the estimate at
// worst a factor-of-two overestimate of the true quantile (and
// symmetrically at most 2x below it). p50/p95/p99 reported from these
// histograms (armvirt-stat, the serve /metrics endpoint) carry that
// error bar; N, Sum, HMin, HMax and HMean stay exact.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.n)
	var cum int64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.max)
}

// Buckets returns (lo, hi, count) for each non-empty bucket in ascending
// order, for callers that want to render the distribution.
func (h *Histogram) Buckets() [][3]int64 {
	if h == nil {
		return nil
	}
	var out [][3]int64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(b)
		out = append(out, [3]int64{lo, hi, c})
	}
	return out
}

// String renders a one-line summary.
func (h *Histogram) String() string {
	if h.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.0f min=%d p50~%.0f p95~%.0f max=%d",
		h.n, h.HMean(), h.min, h.Quantile(0.50), h.Quantile(0.95), h.max)
}
