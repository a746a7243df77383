package telemetry

import (
	"strings"
	"testing"

	"armvirt/internal/sim"
)

// TestNilSamplerIsNoOp: every exported method must be callable through a
// nil sampler without effect — the zero-cost idiom the nilrecorder
// analyzer enforces.
func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	s.AddPhaseSpan(0, "vm", PhaseGuest, 0, 100)
	s.AddSteal(0, "", 0, 100)
	s.IncExit(10, 0, "vm", "wfi")
	s.NoteRunQueue(10, 0, 3)
	s.Count(10, -1, CtrGICDelivery, 1)
	s.ObserveIRQLatency(0, 50)
	if s.Samples() != 0 || s.Interval() != 0 || s.NCPU() != 0 {
		t.Fatal("nil sampler reported non-zero state")
	}
	ts := s.Series()
	if ts.Buckets != 0 || len(ts.Cols) != 0 {
		t.Fatalf("nil sampler produced a non-empty series: %+v", ts)
	}
}

// TestSpanBucketDistribution: a span crossing bucket boundaries must
// distribute its cycles exactly, with no loss at the edges.
func TestSpanBucketDistribution(t *testing.T) {
	s := NewSampler(1, 1, 100) // interval 100 cycles
	s.AddPhaseSpan(0, "vm", PhaseGuest, 50, 250)
	ts := s.Series()
	if ts.Buckets != 3 {
		t.Fatalf("buckets = %d, want 3", ts.Buckets)
	}
	want := []int64{50, 100, 50}
	for b, w := range want {
		if got := ts.Value(SeriesUtilGuest, "", 0, "vm", b); got != w {
			t.Errorf("bucket %d = %d, want %d", b, got, w)
		}
	}
	if got := ts.Total(SeriesUtilGuest, "", 0, "vm"); got != 200 {
		t.Errorf("total = %d, want 200 (span length)", got)
	}
}

// TestPointAndGaugeSemantics: counters sum within a bucket; the run-queue
// gauge keeps the per-bucket maximum.
func TestPointAndGaugeSemantics(t *testing.T) {
	s := NewSampler(1, 1, 100)
	s.Count(10, 0, CtrGICDelivery, 1)
	s.Count(20, 0, CtrGICDelivery, 2)
	s.NoteRunQueue(10, 0, 3)
	s.NoteRunQueue(20, 0, 7)
	s.NoteRunQueue(30, 0, 2)
	ts := s.Series()
	if got := ts.Value(SeriesCount, CtrGICDelivery, 0, "", 0); got != 3 {
		t.Errorf("counter bucket = %d, want 3 (summed)", got)
	}
	if got := ts.Value(SeriesRunq, "", 0, "", 0); got != 7 {
		t.Errorf("runq bucket = %d, want 7 (max)", got)
	}
}

// TestSeriesSortedAndRepeatable: Series output is in canonical key order
// and byte-identical across repeated snapshots.
func TestSeriesSortedAndRepeatable(t *testing.T) {
	s := NewSampler(2, 2400, 0)
	s.IncExit(10, 1, "vmB", "irq")
	s.IncExit(10, 0, "vmA", "wfi")
	s.Count(10, -1, CtrDiskReq, 1)
	s.AddPhaseSpan(1, "vmB", PhaseGuest, 0, 500)
	ts := s.Series()
	for i := 1; i < len(ts.Cols); i++ {
		a, b := ts.Cols[i-1], ts.Cols[i]
		ka := Key{Series: a.Series, Name: a.Name, CPU: a.CPU, VM: a.VM}
		kb := Key{Series: b.Series, Name: b.Name, CPU: b.CPU, VM: b.VM}
		if !keyLess(ka, kb) {
			t.Fatalf("columns out of canonical order at %d: %+v !< %+v", i, ka, kb)
		}
	}
	var c1, c2 strings.Builder
	if err := WriteCSV(&c1, []Series{s.Series()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&c2, []Series{s.Series()}); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Error("repeated CSV snapshots differ")
	}
	if !strings.HasPrefix(c1.String(), "machine,series,name,cpu,vm,bucket,t_us,value\n") {
		t.Errorf("CSV header missing: %q", c1.String()[:60])
	}
}

// TestIRQLatencyHistogram: observations land in the right per-CPU
// histogram and negative latencies are ignored.
func TestIRQLatencyHistogram(t *testing.T) {
	s := NewSampler(2, 1, 100)
	s.ObserveIRQLatency(0, 10)
	s.ObserveIRQLatency(0, 20)
	s.ObserveIRQLatency(-1, 99) // machine level
	s.ObserveIRQLatency(0, -5)  // ignored
	ts := s.Series()
	if len(ts.IRQLatency) != 2 {
		t.Fatalf("histograms = %d, want 2 (pcpu0 + machine): %+v", len(ts.IRQLatency), ts.IRQLatency)
	}
	if h := ts.IRQLatency[0]; h.CPU != 0 || h.N != 2 || h.Sum != 30 {
		t.Errorf("pcpu0 hist = %+v, want N=2 Sum=30", h)
	}
	if h := ts.IRQLatency[1]; h.CPU != -1 || h.N != 1 || h.Sum != 99 {
		t.Errorf("machine hist = %+v, want N=1 Sum=99", h)
	}
}

// TestBucketOfAndUs: time-to-bucket mapping clamps to the sampled range.
func TestBucketOfAndUs(t *testing.T) {
	s := NewSampler(1, 100, 200) // 100 MHz, 200-cycle interval = 2us
	s.Count(450, 0, CtrDiskReq, 1)
	ts := s.Series()
	if ts.Buckets != 3 {
		t.Fatalf("buckets = %d, want 3", ts.Buckets)
	}
	for _, c := range []struct {
		t    sim.Time
		want int
	}{{0, 0}, {199, 0}, {200, 1}, {450, 2}, {10000, 2}} {
		if got := ts.BucketOf(c.t); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := ts.BucketUs(1); got != 2 {
		t.Errorf("BucketUs(1) = %g, want 2", got)
	}
}
