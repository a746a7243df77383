// Package telemetry provides deterministic in-simulation time series: a
// sampler that ticks on the engine's event clock (never wall time) and
// records columnar per-PCPU/per-VM series — utilization by phase
// (guest/hyp/idle), steal time, run-queue depth, exit counts by reason,
// counter rates, and IRQ-delivery latency histograms — fed by hooks in the
// sched/hyp/gic/netdev/blockdev/vio layers.
//
// Time is bucketed on a fixed sampling interval in cycles: bucket b covers
// simulated time [b*interval, (b+1)*interval). Hooks add either a span
// (cycles distributed across the buckets it overlaps), a point increment
// (landing in the bucket containing its timestamp), or a gauge observation
// (per-bucket maximum). Nothing consults the host clock, so a run's series
// are as reproducible as its tables.
//
// Like obs.Recorder, a Sampler is written only from inside its machine's
// engine, which runs one process at a time on every partition layout, so
// one set of buffers serves partitioned and unpartitioned machines alike.
//
// A nil *Sampler is a valid no-op recorder: every exported method begins
// with the nil guard, so unsampled runs pay only a nil check (the
// obs.Recorder idiom, enforced by armvirt-vet's nilrecorder analyzer).
package telemetry

import (
	"armvirt/internal/sim"
	"armvirt/internal/stats"
)

// Phase labels where a physical CPU's sampled cycles went.
type Phase int

// Phases. Idle is derived (interval minus guest minus hyp minus steal),
// never recorded directly.
const (
	PhaseGuest Phase = iota
	PhaseHyp
)

func (ph Phase) String() string {
	if ph == PhaseGuest {
		return "guest"
	}
	return "hyp"
}

// Series kinds, the Key.Series values the hooks record under.
const (
	// SeriesUtilGuest and SeriesUtilHyp are busy cycles per bucket
	// attributed to guest execution and hypervisor/host work.
	SeriesUtilGuest = "util_guest"
	SeriesUtilHyp   = "util_hyp"
	// SeriesSteal is cycles per bucket a runnable context spent waiting
	// for its physical CPU (dispatcher acquire wait).
	SeriesSteal = "steal"
	// SeriesRunq is the per-bucket maximum run-queue depth (a gauge).
	SeriesRunq = "runq"
	// SeriesExit is VM exits per bucket; Key.Name carries the reason.
	SeriesExit = "exit"
	// SeriesCount is a generic event counter; Key.Name carries the
	// counter name (the Ctr* constants).
	SeriesCount = "count"
)

// Counter names the machine and I/O layers record under SeriesCount. They
// are package constants so hot call sites pass a preallocated string (the
// nilrecorder call-site rule: no allocation before the nil guard can run).
const (
	// CtrGICDelivery counts physical interrupt deliveries (per target CPU).
	CtrGICDelivery = "gic-delivery"
	// CtrNICIRQ counts NIC interrupts raised toward the machine.
	CtrNICIRQ = "nic-irq"
	// CtrDiskReq counts block requests served.
	CtrDiskReq = "disk-req"
)

// Key identifies one column: a series kind, an optional sub-name (exit
// reason, counter name), the physical CPU (-1 = machine level), and an
// optional VM name.
type Key struct {
	Series string
	Name   string
	CPU    int
	VM     string
}

func keyLess(a, b Key) bool {
	if a.Series != b.Series {
		return a.Series < b.Series
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.CPU != b.CPU {
		return a.CPU < b.CPU
	}
	return a.VM < b.VM
}

// column is one series buffer: per-bucket values, summed or maximized on
// merge.
type column struct {
	max  bool
	vals []int64
}

func (c *column) add(b int, v int64) {
	for len(c.vals) <= b {
		c.vals = append(c.vals, 0)
	}
	if c.max {
		if v > c.vals[b] {
			c.vals[b] = v
		}
		return
	}
	c.vals[b] += v
}

// Sampler records deterministic simulated-time series for one machine.
// Construct with NewSampler; attach to a machine with
// hw.Machine.SetSampler.
type Sampler struct {
	ncpu     int
	freqMHz  int
	interval sim.Time
	cols     map[Key]*column
	hist     []*stats.Histogram // IRQ latency per CPU; index ncpu = machine
	samples  int64
}

// NewSampler returns a sampler for an ncpu-CPU machine clocked at freqMHz,
// bucketing on interval cycles (values <= 0 default to 10us of cycles).
func NewSampler(ncpu, freqMHz int, interval sim.Time) *Sampler {
	if ncpu < 0 {
		ncpu = 0
	}
	if freqMHz <= 0 {
		freqMHz = 1
	}
	if interval <= 0 {
		interval = sim.Time(10 * freqMHz) // 10us of cycles
	}
	return &Sampler{
		ncpu:     ncpu,
		freqMHz:  freqMHz,
		interval: interval,
		cols:     make(map[Key]*column),
		hist:     make([]*stats.Histogram, ncpu+1),
	}
}

// Interval returns the sampling interval in cycles (0 on a nil sampler).
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// NCPU returns the sampled machine's CPU count (0 on a nil sampler).
func (s *Sampler) NCPU() int {
	if s == nil {
		return 0
	}
	return s.ncpu
}

func (s *Sampler) col(k Key, max bool) *column {
	c := s.cols[k]
	if c == nil {
		c = &column{max: max}
		s.cols[k] = c
	}
	return c
}

// addSpan distributes the cycles of [from, to) across the buckets the span
// overlaps.
func (s *Sampler) addSpan(series, name string, cpu int, vm string, from, to sim.Time) {
	if to <= from {
		return
	}
	if from < 0 {
		from = 0
	}
	s.samples++
	c := s.col(Key{Series: series, Name: name, CPU: cpu, VM: vm}, false)
	for t := from; t < to; {
		b := int(t / s.interval)
		end := sim.Time(b+1) * s.interval
		if end > to {
			end = to
		}
		c.add(b, int64(end-t))
		t = end
	}
}

// AddPhaseSpan attributes the cycles of [from, to) on pcpu to a
// utilization phase (guest or hypervisor/host), optionally tagged with the
// VM that executed.
func (s *Sampler) AddPhaseSpan(cpu int, vm string, ph Phase, from, to sim.Time) {
	if s == nil {
		return
	}
	series := SeriesUtilGuest
	if ph == PhaseHyp {
		series = SeriesUtilHyp
	}
	s.addSpan(series, "", cpu, vm, from, to)
}

// AddSteal records [from, to) as steal time on pcpu: cycles a runnable
// context spent waiting for the CPU.
func (s *Sampler) AddSteal(cpu int, vm string, from, to sim.Time) {
	if s == nil {
		return
	}
	s.addSpan(SeriesSteal, "", cpu, vm, from, to)
}

// IncExit counts one VM exit with the given reason at time t on pcpu.
func (s *Sampler) IncExit(t sim.Time, cpu int, vm, reason string) {
	if s == nil {
		return
	}
	s.point(SeriesExit, reason, cpu, vm, t, 1, false)
}

// NoteRunQueue records the run-queue depth on pcpu at time t; the series
// keeps the per-bucket maximum.
func (s *Sampler) NoteRunQueue(t sim.Time, cpu int, depth int64) {
	if s == nil {
		return
	}
	s.point(SeriesRunq, "", cpu, "", t, depth, true)
}

// Count adds n to the named counter (one of the Ctr* constants) at time t.
// pcpu < 0 records at machine level.
func (s *Sampler) Count(t sim.Time, cpu int, name string, n int64) {
	if s == nil {
		return
	}
	s.point(SeriesCount, name, cpu, "", t, n, false)
}

func (s *Sampler) point(series, name string, cpu int, vm string, t sim.Time, v int64, max bool) {
	if t < 0 {
		t = 0
	}
	s.samples++
	s.col(Key{Series: series, Name: name, CPU: cpu, VM: vm}, max).add(int(t/s.interval), v)
}

// ObserveIRQLatency records one IRQ delivery-to-consumption latency (in
// cycles) against pcpu's histogram (-1 = machine level).
func (s *Sampler) ObserveIRQLatency(cpu int, lat sim.Time) {
	if s == nil {
		return
	}
	if lat < 0 {
		return
	}
	s.samples++
	idx := s.ncpu
	if cpu >= 0 && cpu < s.ncpu {
		idx = cpu
	}
	h := s.hist[idx]
	if h == nil {
		h = stats.NewHistogram()
		s.hist[idx] = h
	}
	h.Observe(int64(lat))
}

// Samples returns the total number of recorded samples (0 on a nil
// sampler). Deterministic: every sample is an engine event.
func (s *Sampler) Samples() int64 {
	if s == nil {
		return 0
	}
	return s.samples
}
