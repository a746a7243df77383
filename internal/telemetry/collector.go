// Run-scoped sampler collection: a Collector is the telemetry half of
// sim's run scope. Collect sets it for the duration of a function, every
// engine built in that scope captures it, and hw.New gives each machine a
// fresh Sampler from its engine's collector. Worker pools carry the scope
// with sim.Inherit, so collection survives the parallel runners
// (core.RunAll, bench.RunPhaseBreakdowns) unchanged.
package telemetry

import (
	"sort"
	"strings"
	"sync"

	"armvirt/internal/sim"
)

// Collector gathers the samplers of every machine built in its run scope.
// Safe for concurrent attachment; snapshot only after the sampled engines
// have quiesced.
type Collector struct {
	intervalUs float64
	mu         sync.Mutex
	samplers   []*Sampler
}

// NewSampler builds a sampler for an ncpu machine at freqMHz on the
// collector's interval and registers it.
func (c *Collector) NewSampler(ncpu, freqMHz int) *Sampler {
	if c == nil {
		return nil
	}
	s := NewSampler(ncpu, freqMHz, sim.Time(c.intervalUs*float64(freqMHz)))
	c.mu.Lock()
	c.samplers = append(c.samplers, s)
	c.mu.Unlock()
	return s
}

// Samplers returns the collected samplers in attachment order (which is
// deterministic only for serial runs; see SortedSeries).
func (c *Collector) Samplers() []*Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Sampler(nil), c.samplers...)
}

// SeriesAll returns every sampler's merged series in attachment order.
func (c *Collector) SeriesAll() []Series {
	if c == nil {
		return nil
	}
	out := make([]Series, 0)
	for _, s := range c.Samplers() {
		out = append(out, s.Series())
	}
	return out
}

// SortedSeries returns every sampler's merged series in a canonical
// content order, independent of attachment order — the byte-stable
// snapshot parallel runners (-j workers attach samplers in host-scheduling
// order) should render from.
func (c *Collector) SortedSeries() []Series {
	if c == nil {
		return nil
	}
	out := c.SeriesAll()
	keyOf := make([]string, len(out))
	for i, ts := range out {
		var b strings.Builder
		WriteCSV(&b, []Series{ts})
		keyOf[i] = b.String()
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keyOf[idx[a]] < keyOf[idx[b]] })
	sorted := make([]Series, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// Collect runs fn with a fresh collector, whose samplers bucket on
// intervalUs microseconds of simulated time (values <= 0 default to
// 10us), as the telemetry half of the calling goroutine's run scope, and
// returns the collector. Every machine fn builds — directly or on workers
// that propagate the scope with sim.Inherit — is sampled. The stats half
// of the scope (sim.CollectStats) is kept.
func Collect(intervalUs float64, fn func()) *Collector {
	if intervalUs <= 0 {
		intervalUs = 10
	}
	c := &Collector{intervalUs: intervalUs}
	sim.WithTelemetry(c, fn)
	return c
}
