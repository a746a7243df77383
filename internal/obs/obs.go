// Package obs is the full-run observability layer: a typed event bus the
// simulator's layers publish structured events into, so a whole experiment
// (a TCP_RR loop, an oversubscription run, a fault storm) can be observed
// the way `perf kvm stat` or xentrace observes a real hypervisor.
//
// The design mirrors the paper's own measurement framework: a lightweight
// in-kernel recorder that stamps transition events with a shared cycle
// counter and attributes where VM-to-hypervisor transitions spend their
// time. Here the shared counter is the simulation clock, so the recorded
// stream is exact and deterministic: two runs of the same experiment
// produce byte-identical event sequences.
//
// A Recorder is attached per machine (hw.Machine.SetRecorder) and holds one
// bounded ring buffer per physical CPU plus one machine-level ring
// for events with no CPU affinity. A nil *Recorder is valid and records
// nothing, so instrumentation hooks stay in place at zero cost when
// observability is off.
package obs

import (
	"fmt"
	"sort"

	"armvirt/internal/sim"
)

// Kind is the event taxonomy. Every instrumented layer publishes one of
// these; the aggregation and export layers switch on it.
type Kind uint8

// The event kinds.
const (
	// GuestEnter marks a VCPU (re-)entering guest execution: the eret /
	// VM-entry completed and guest code is running.
	GuestEnter Kind = iota
	// GuestExit marks a VM exit; Detail carries the exit reason
	// ("hypercall", "wfi", "mmio-kick", "stage2-fault", ...). The event
	// is stamped at trap time, so the gap to the VCPU's next GuestEnter
	// is the full not-in-guest cost of the exit.
	GuestExit
	// VirqInject marks a virtual interrupt being made pending for a
	// VCPU; Arg is the virq number.
	VirqInject
	// VMSwitch marks the physical CPU changing which VM context occupies
	// it — a scheduler-driven switch between VMs, or the block/wake path
	// through the host idle thread (KVM) or the idle domain (Xen).
	VMSwitch
	// IOKick marks I/O signalling: a guest kicking its backend, a
	// backend notifying a guest, a paravirtual ring operation, or a NIC
	// raising its interrupt. Detail names the path.
	IOKick
	// SchedDecision marks a scheduling decision: a credit-scheduler or
	// round-robin pick, or the least-loaded dispatcher placing work.
	SchedDecision
	// Stage2Fault marks a Stage-2 (nested page table) fault; Arg is the
	// faulting IPA.
	Stage2Fault
	// PhysIRQ marks a physical interrupt delivery at a CPU (distributor
	// SGI/PPI/SPI on ARM, IPI/MSI on x86); Arg is the IRQ number.
	PhysIRQ
	// ProcEvent marks an engine-level process lifecycle event (fiber
	// start/exit), published by the sim engine's tap.
	ProcEvent

	numKinds
)

// Kinds lists every event kind in declaration order.
var Kinds = []Kind{
	GuestEnter, GuestExit, VirqInject, VMSwitch, IOKick,
	SchedDecision, Stage2Fault, PhysIRQ, ProcEvent,
}

// String returns the stable lower-case label used in summaries and traces.
func (k Kind) String() string {
	switch k {
	case GuestEnter:
		return "guest-enter"
	case GuestExit:
		return "guest-exit"
	case VirqInject:
		return "virq-inject"
	case VMSwitch:
		return "vm-switch"
	case IOKick:
		return "io-kick"
	case SchedDecision:
		return "sched"
	case Stage2Fault:
		return "stage2-fault"
	case PhysIRQ:
		return "phys-irq"
	case ProcEvent:
		return "proc"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one structured trace record.
type Event struct {
	// Seq is the global emission order within the recorder, assigned at
	// Emit time. It totally orders the stream even when several events
	// share a timestamp.
	Seq uint64
	// T is the simulation time (cycles) the event was emitted at.
	T sim.Time
	// Kind classifies the event.
	Kind Kind
	// PCPU is the physical CPU the event is associated with, or -1 for
	// machine-level events.
	PCPU int
	// VM names the virtual machine involved ("" when not applicable).
	VM string
	// VCPU is the VCPU index within VM, or -1.
	VCPU int
	// Detail is the kind-specific label: the exit reason for GuestExit,
	// the I/O path for IOKick, the IRQ class for PhysIRQ, and so on.
	Detail string
	// Arg is the kind-specific numeric argument: virq or IRQ number,
	// faulting IPA, target index.
	Arg int64
}

func (e Event) String() string {
	return fmt.Sprintf("%10d %-12s pcpu=%d %s/vcpu%d %s arg=%d",
		int64(e.T), e.Kind, e.PCPU, e.VM, e.VCPU, e.Detail, e.Arg)
}

// ring is a bounded circular event buffer: it grows on demand up to its
// capacity, and once full the oldest event is overwritten and counted as
// dropped.
type ring struct {
	buf      []Event // the live events; grows until len(buf) == capacity
	capacity int
	start    int // index of the oldest event
	dropped  int64
}

func newRing(capacity int) *ring { return &ring{capacity: capacity} }

func (r *ring) push(ev Event) {
	if len(r.buf) < r.capacity {
		// Not yet full, so nothing has wrapped: start is 0. Grow by
		// doubling, never past capacity.
		if len(r.buf) == cap(r.buf) {
			grown := make([]Event, len(r.buf), min(max(2*len(r.buf), 8), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// events returns the live events oldest-first.
func (r *ring) events() []Event {
	out := make([]Event, 0, len(r.buf))
	for i := range r.buf {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// DefaultRingCap is the per-CPU ring capacity used when NewRecorder is
// given a non-positive capacity.
const DefaultRingCap = 1 << 16

// Recorder is the per-machine event bus: one ring per physical CPU plus a
// machine-level ring, a sequence counter, and per-kind counters. All
// methods are safe on a nil receiver (no-ops / zero values), so hot paths
// can emit unconditionally.
//
// The recorder is written only from inside its machine's simulation
// engine, which runs one process at a time on every partition layout, so
// it needs no locking and its contents are deterministic.
type Recorder struct {
	ncpu int
	// rings holds the ncpu per-CPU rings followed by the machine-level
	// ring.
	rings  []*ring
	seq    uint64
	counts [numKinds]int64
	// profiling is the span-profiler state (profile.go), created lazily
	// on first InSpan/ChargeCycles use.
	profiling *profState
}

// NewRecorder creates a recorder for a machine with ncpu physical CPUs.
// ringCap is the per-ring capacity; <= 0 selects DefaultRingCap.
func NewRecorder(ncpu, ringCap int) *Recorder {
	if ncpu < 0 {
		ncpu = 0
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	r := &Recorder{ncpu: ncpu, rings: make([]*ring, ncpu+1)}
	for i := range r.rings {
		r.rings[i] = newRing(ringCap)
	}
	return r
}

// NCPU returns the physical CPU count the recorder was built for.
func (r *Recorder) NCPU() int {
	if r == nil {
		return 0
	}
	return r.ncpu
}

// Emit records one event. No-op on a nil recorder. Events with pcpu
// outside [0, ncpu) land in the machine-level ring.
func (r *Recorder) Emit(t sim.Time, k Kind, pcpu int, vm string, vcpu int, detail string, arg int64) {
	if r == nil {
		return
	}
	r.seq++
	r.counts[k]++
	idx := pcpu
	if idx < 0 || idx >= r.ncpu {
		idx = r.ncpu
	}
	r.rings[idx].push(Event{
		Seq: r.seq, T: t, Kind: k,
		PCPU: pcpu, VM: vm, VCPU: vcpu,
		Detail: detail, Arg: arg,
	})
}

// Count returns how many events of kind k have been emitted (including any
// that have since been dropped from their ring).
func (r *Recorder) Count(k Kind) int64 {
	if r == nil {
		return 0
	}
	return r.counts[k]
}

// Total returns the total emitted event count.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq)
}

// Dropped returns how many events were overwritten ring-buffer style.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for _, rg := range r.rings {
		d += rg.dropped
	}
	return d
}

// Len returns the number of events currently held in the rings.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, rg := range r.rings {
		n += len(rg.buf)
	}
	return n
}

// Events returns the retained events merged across all rings in emission
// (Seq) order. The result is freshly allocated and deterministic.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	for _, rg := range r.rings {
		out = append(out, rg.events()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
