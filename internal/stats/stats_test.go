package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySampleIsZero(t *testing.T) {
	s := New()
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Percentile(50) != 0 || s.CV() != 0 || s.N() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
}

func TestBasicMoments(t *testing.T) {
	s := Of(2, 4, 4, 4, 5, 5, 7, 9)
	if !almost(s.Mean(), 5) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if !almost(s.Var(), 32.0/7) {
		t.Fatalf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatal("min/max wrong")
	}
}

func TestPercentiles(t *testing.T) {
	s := Of(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if !almost(s.Median(), 5.5) {
		t.Fatalf("median = %v", s.Median())
	}
	if !almost(s.Percentile(0), 1) || !almost(s.Percentile(100), 10) {
		t.Fatal("extreme percentiles wrong")
	}
	if !almost(s.Percentile(25), 3.25) {
		t.Fatalf("p25 = %v", s.Percentile(25))
	}
}

func TestAddAfterSortedQuery(t *testing.T) {
	s := Of(5, 1)
	_ = s.Median() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Fatal("Add after sort broke ordering")
	}
}

func TestCV(t *testing.T) {
	s := Of(10, 10, 10, 10)
	if s.CV() != 0 {
		t.Fatal("constant sample has no spread")
	}
	v := Of(8, 12, 8, 12)
	if v.CV() <= 0 {
		t.Fatal("spread sample should have positive CV")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{2, 8}), 4) {
		t.Fatal("geomean")
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate geomeans should be 0")
	}
}

// Property: mean lies within [min, max]; percentile is monotone in p; CI
// shrinks as n grows.
func TestSampleInvariants(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < int(n%60)+2; i++ {
			s.Add(rng.Float64() * 1000)
		}
		m := s.Mean()
		if m < s.Min()-1e-9 || m > s.Max()+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return s.Stddev() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	s := Of(1, 2, 3)
	if got := s.String(); len(got) == 0 {
		t.Fatal("empty string render")
	}
}
