package telemetry

import (
	"strings"
	"sync"
	"testing"

	"armvirt/internal/sim"
)

// TestCollectorBinding: an engine built under Collect captures the
// collector as its scope's telemetry half; one built outside captures
// nothing, so its machine gets the nil (no-op) sampler.
func TestCollectorBinding(t *testing.T) {
	if got := sim.NewEngine().Telemetry(); got != nil {
		t.Fatalf("engine built out of scope captured %v", got)
	}
	var inScope any
	col := Collect(10, func() { inScope = sim.NewEngine().Telemetry() })
	if inScope != col {
		t.Fatalf("engine built under Collect captured %v, want the collector", inScope)
	}
	if got := sim.NewEngine().Telemetry(); got != nil {
		t.Fatalf("scope leaked past Collect: %v", got)
	}
}

// inheritedTelemetry builds one engine on each of four goroutines that
// call bind first and returns the telemetry half each captured.
func inheritedTelemetry(bind func() func()) []any {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got []any
	)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer bind()()
			tele := sim.NewEngine().Telemetry()
			mu.Lock()
			got = append(got, tele)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return got
}

// TestCollectorInherit: worker goroutines re-bind via sim.Inherit so
// engines built off the main goroutine capture the same collector, and
// detach restores the worker's previous (empty) scope.
func TestCollectorInherit(t *testing.T) {
	var got []any
	col := Collect(10, func() { got = inheritedTelemetry(sim.Inherit()) })
	if len(got) != 4 {
		t.Fatalf("workers built %d engines, want 4", len(got))
	}
	for i, tele := range got {
		if tele != col {
			t.Errorf("worker %d did not inherit the collector: got %v", i, tele)
		}
	}
	if n := len(col.Samplers()); n != 0 {
		t.Errorf("collector holds %d samplers before any machine asked for one", n)
	}
}

// TestInheritUnboundIsNoOp: sim.Inherit from an unbound goroutine yields
// a binder that leaves workers unbound rather than panicking, even when
// they run inside the parent's later Collect.
func TestInheritUnboundIsNoOp(t *testing.T) {
	bind := sim.Inherit()
	var got []any
	Collect(10, func() { got = inheritedTelemetry(bind) })
	for i, tele := range got {
		if tele != nil {
			t.Errorf("worker %d inherited a collector from an unbound parent: %v", i, tele)
		}
	}
}

// TestSamplerIntervalFromCollector: NewSampler converts the collector's
// microsecond interval into cycles at the machine's frequency.
func TestSamplerIntervalFromCollector(t *testing.T) {
	c := Collect(10, func() {})
	s := c.NewSampler(4, 2400)
	if got := s.Interval(); got != 24000 {
		t.Fatalf("interval = %d cycles, want 24000 (10us at 2400 MHz)", got)
	}
	if got := s.NCPU(); got != 4 {
		t.Fatalf("ncpu = %d, want 4", got)
	}
}

// TestSortedSeriesCanonical: SortedSeries orders machines by their CSV
// rendering so the merged output is stable regardless of sampler
// registration order.
func TestSortedSeriesCanonical(t *testing.T) {
	mk := func(order []int) string {
		c := Collect(10, func() {})
		samplers := make([]*Sampler, 2)
		for _, i := range order {
			samplers[i] = c.NewSampler(1, 1)
		}
		samplers[0].Count(5, 0, CtrDiskReq, 3)
		samplers[1].Count(5, 0, CtrNICIRQ, 7)
		var b strings.Builder
		if err := WriteCSV(&b, c.SortedSeries()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := mk([]int{0, 1}), mk([]int{1, 0}); a != b {
		t.Errorf("SortedSeries depends on registration order:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestNilCollector: a nil collector hands out nil samplers, so unconfigured
// code paths stay zero-cost without guards.
func TestNilCollector(t *testing.T) {
	var c *Collector
	if s := c.NewSampler(4, 2400); s != nil {
		t.Fatal("nil collector returned a non-nil sampler")
	}
	if got := c.Samplers(); got != nil {
		t.Fatalf("nil collector has samplers: %v", got)
	}
	if got := c.SortedSeries(); len(got) != 0 {
		t.Fatalf("nil collector has series: %v", got)
	}
}
