// Package sched models the CPU allocation policy of the paper's
// experimental setup (§III): each VCPU pinned to a dedicated physical CPU,
// the host's interrupts and helper threads (or Xen's Dom0) confined to a
// disjoint CPU set, and nothing else scheduled on the measured CPUs. It
// also provides the deterministic least-loaded dispatcher the workload
// simulations use to spread divisible application work.
package sched

import (
	"fmt"

	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// Layout is a machine's CPU partitioning.
type Layout struct {
	// NCPU is the machine's physical core count.
	NCPU int
	// Guest is the PCPU set reserved for the measured VM's VCPUs.
	Guest []int
	// Backend is the PCPU set for the hypervisor side: host kernel
	// threads and device interrupts for KVM, Dom0 VCPUs for Xen.
	Backend []int
}

// PaperLayout returns the configuration of §III on an 8-core server: a
// 4-VCPU VM on CPUs 0-3, everything else on CPUs 4-7.
func PaperLayout() Layout {
	return Layout{NCPU: 8, Guest: []int{0, 1, 2, 3}, Backend: []int{4, 5, 6, 7}}
}

// Validate checks the invariants the methodology depends on: sets within
// range, disjoint, and non-empty.
func (l Layout) Validate() error {
	if len(l.Guest) == 0 || len(l.Backend) == 0 {
		return fmt.Errorf("sched: both CPU sets must be non-empty")
	}
	seen := map[int]string{}
	check := func(set []int, name string) error {
		for _, c := range set {
			if c < 0 || c >= l.NCPU {
				return fmt.Errorf("sched: %s CPU %d out of range [0,%d)", name, c, l.NCPU)
			}
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("sched: CPU %d in both %s and %s sets", c, prev, name)
			}
			seen[c] = name
		}
		return nil
	}
	if err := check(l.Guest, "guest"); err != nil {
		return err
	}
	return check(l.Backend, "backend")
}

// Dispatcher assigns divisible work to the least-loaded of a set of
// execution resources, deterministically (ties go to the lowest index). It
// is the idealized balancer the capacity models assume and the serving
// simulation uses.
type Dispatcher struct {
	eng     *sim.Engine
	res     []*sim.Resource
	backlog []sim.Time
	busy    []sim.Time
	queued  []int64
	// Rec, when non-nil, receives a SchedDecision event for every
	// balanced placement.
	Rec *obs.Recorder
	// Tel, when non-nil, records run-queue depth and steal time (cycles a
	// fiber waited for its resource) per execution.
	Tel *telemetry.Sampler
	// TelCPU maps resource index -> the physical CPU its telemetry lands
	// on; nil means resource i is CPU i.
	TelCPU []int
}

// NewDispatcher builds a dispatcher over n resources on eng, named with
// prefix.
func NewDispatcher(eng *sim.Engine, prefix string, n int) *Dispatcher {
	d := &Dispatcher{
		eng:     eng,
		res:     make([]*sim.Resource, n),
		backlog: make([]sim.Time, n),
		busy:    make([]sim.Time, n),
		queued:  make([]int64, n),
	}
	for i := range d.res {
		d.res[i] = sim.NewResource(eng, fmt.Sprintf("%s%d", prefix, i))
	}
	return d
}

// telCPU resolves the physical CPU resource i reports telemetry under.
func (d *Dispatcher) telCPU(i int) int {
	if d.TelCPU != nil {
		return d.TelCPU[i]
	}
	return i
}

// N returns the resource count.
func (d *Dispatcher) N() int { return len(d.res) }

// LeastLoaded returns the index with the smallest committed backlog.
func (d *Dispatcher) LeastLoaded() int {
	best, load := 0, d.backlog[0]
	for i := 1; i < len(d.backlog); i++ {
		if d.backlog[i] < load {
			best, load = i, d.backlog[i]
		}
	}
	return best
}

// ExecOn runs cost cycles of exclusive work on resource i. The wait for
// the resource — the interval between requesting it and holding it —
// counts as steal time on the resource's CPU, and the number of fibers
// queued on the resource feeds the run-queue depth series.
func (d *Dispatcher) ExecOn(p *sim.Proc, i int, cost sim.Time) {
	d.backlog[i] += cost
	d.queued[i]++
	d.Tel.NoteRunQueue(p.Now(), d.telCPU(i), d.queued[i])
	t0 := p.Now()
	d.res[i].Acquire(p)
	d.Tel.AddSteal(d.telCPU(i), "", t0, p.Now())
	d.Rec.ChargeCycles(p, "dispatch exec", int64(cost))
	p.Sleep(cost)
	d.busy[i] += cost
	d.backlog[i] -= cost
	d.queued[i]--
	d.res[i].Release(p)
}

// ExecBalanced runs the work on the least-loaded resource and returns the
// index used.
func (d *Dispatcher) ExecBalanced(p *sim.Proc, cost sim.Time) int {
	i := d.LeastLoaded()
	d.Rec.Emit(p.Now(), obs.SchedDecision, i, "", -1, "least-loaded", int64(cost))
	d.ExecOn(p, i, cost)
	return i
}

// Busy returns each resource's cumulative busy cycles.
func (d *Dispatcher) Busy() []sim.Time {
	return append([]sim.Time(nil), d.busy...)
}

// BusyFractions returns per-resource utilization over the elapsed window.
func (d *Dispatcher) BusyFractions(elapsed sim.Time) []float64 {
	out := make([]float64, len(d.busy))
	if elapsed <= 0 {
		return out
	}
	for i, b := range d.busy {
		out[i] = float64(b) / float64(elapsed)
	}
	return out
}
