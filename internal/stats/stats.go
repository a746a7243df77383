// Package stats provides the summary statistics the measurement harness
// uses: mean, standard deviation, percentiles, spread, and
// cycle/time conversion helpers. The paper's methodology (§IV) demanded
// low variance — measurements at the level of a few hundred cycles are
// easily skewed by thousands — so the harness records full samples and
// lets experiments assert on spread, not just means.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// New returns an empty sample.
func New() *Sample { return &Sample{} }

// Of builds a sample from values.
func Of(xs ...float64) *Sample {
	s := New()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// CV returns the coefficient of variation (stddev/mean), the spread
// measure the paper's methodology worries about.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stddev() / m
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f p50=%.1f max=%.1f",
		s.N(), s.Mean(), s.Stddev(), s.Min(), s.Median(), s.Max())
}

// GeoMean returns the geometric mean of positive values (how SPECjvm2008
// aggregates its sub-benchmarks).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
