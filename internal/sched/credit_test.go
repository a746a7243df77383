package sched

import (
	"math"
	"testing"
	"testing/quick"
)

// shares runs periods full accounting periods of slicesPerPeriod slices,
// picking and burning as workload.WeightedShares does, and returns each
// VCPU's achieved CPU share — the fairness property the scheduler exists
// to provide.
func shares(s *CreditScheduler, periods, slicesPerPeriod int) map[string]float64 {
	run := map[string]int{}
	total := 0
	for p := 0; p < periods; p++ {
		s.Refill()
		for i := 0; i < slicesPerPeriod; i++ {
			v := s.PickNext()
			if v == nil {
				continue
			}
			s.Burn(v, s.CreditsPerPeriod/slicesPerPeriod)
			run[v.Name]++
			total++
		}
	}
	out := map[string]float64{}
	for name, n := range run {
		out[name] = float64(n) / float64(total)
	}
	return out
}

func TestCreditEqualWeightsShareEqually(t *testing.T) {
	s := NewCreditScheduler(300)
	s.Add("a", 256)
	s.Add("b", 256)
	shares := shares(s, 50, 30)
	if math.Abs(shares["a"]-0.5) > 0.05 || math.Abs(shares["b"]-0.5) > 0.05 {
		t.Fatalf("shares = %v, want ~50/50", shares)
	}
}

func TestCreditWeightedShares(t *testing.T) {
	s := NewCreditScheduler(300)
	s.Add("heavy", 512)
	s.Add("light", 256)
	shares := shares(s, 100, 30)
	ratio := shares["heavy"] / shares["light"]
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("heavy/light = %.2f, want ~2 (weight ratio)", ratio)
	}
}

func TestUnderRunsBeforeOver(t *testing.T) {
	s := NewCreditScheduler(300)
	a := s.Add("a", 256)
	b := s.Add("b", 256)
	s.Refill()
	s.Burn(a, 1000) // a deep into OVER
	for i := 0; i < 5; i++ {
		if v := s.PickNext(); v != b {
			t.Fatalf("pick %d chose %s; UNDER vcpu must run first", i, v.Name)
		}
	}
	s.Burn(b, 1000)
	// Both OVER: round-robin proceeds rather than starving.
	if v := s.PickNext(); v == nil {
		t.Fatal("both OVER must still schedule")
	}
}

func TestRefillCapsHoarding(t *testing.T) {
	s := NewCreditScheduler(300)
	v := s.Add("sleeper", 256)
	for i := 0; i < 10; i++ {
		s.Refill()
	}
	if v.Credits() > 300 {
		t.Fatalf("credits = %d, cap is 300", v.Credits())
	}
}

func TestZeroWeightPanics(t *testing.T) {
	s := NewCreditScheduler(300)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add("x", 0)
}

func TestEmptySchedulerPicksNil(t *testing.T) {
	if NewCreditScheduler(300).PickNext() != nil {
		t.Fatal("empty scheduler should return nil")
	}
}

// Property: achieved shares approximate weight proportions for any weight
// mix (within 10 points, given integer credit arithmetic).
func TestCreditFairnessProperty(t *testing.T) {
	prop := func(w1, w2 uint8) bool {
		wa, wb := int(w1%8)+1, int(w2%8)+1
		s := NewCreditScheduler(3000)
		s.Add("a", wa*64)
		s.Add("b", wb*64)
		shares := shares(s, 100, 30)
		wantA := float64(wa) / float64(wa+wb)
		return math.Abs(shares["a"]-wantA) < 0.10
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
