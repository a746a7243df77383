package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It panics on an empty slice: every metric the
// benchmark reports has at least one sample by construction.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("armbench: median of no samples")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// the steadiness command reads spreads exactly as an outside checker
// computing them in Python would. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		panic("armbench: quartiles need at least two samples")
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	const n = 4
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that still has
// at least ten of n samples beyond it. Below forty samples there is no
// such tail worth the name and ok is false: report the median alone.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 40 {
		return 0, false
	}
	for _, p := range tailLadder {
		// Samples strictly beyond the nearest-rank value at p.
		if beyond := n - rank(p, n); beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps a product such as 99.9% of 10000 from rounding up a
// whole rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	return sorted(xs)[rank(p, len(xs))-1]
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkName rejects a metric or workload name outside the benchmark's
// charset: a leading letter or digit, then letters, digits, '_', '.' and
// '-', 64 characters at most.
func checkName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("bad metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}

// checkUnit rejects a unit outside letters, digits, '_', '/', '%', '.' and
// '-', 16 characters at most.
func checkUnit(unit string) error {
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("bad unit %q: want [A-Za-z0-9_/%%.-]{1,16}", unit)
	}
	return nil
}
