// Package timer models the ARM generic timer architecture as the paper's
// hypervisors use it: each VCPU has a virtual timer it can program without
// trapping, but when that timer fires, the hardware raises a *physical*
// interrupt that is taken to EL2 and must be translated into a virtual
// interrupt by the hypervisor — one of the asymmetries §II calls out.
package timer

import "armvirt/internal/sim"

// VirtTimerPPI is the private peripheral interrupt number of the ARM
// virtual timer.
const VirtTimerPPI = 27

// PhysTimerPPI is the PPI of the physical (hypervisor-owned) timer.
const PhysTimerPPI = 26

// VirtualTimer is one VCPU's virtual timer. The guest programs the
// compare value and enable bit directly (no trap); expiry raises a physical
// PPI on whatever physical CPU the VCPU currently occupies.
type VirtualTimer struct {
	eng *sim.Engine
	// raise delivers the physical PPI; wired to the GIC distributor by
	// the machine layer.
	raise func(pcpu int)
	// pcpu is where expiry is delivered (the paper pins every VCPU, so
	// it never changes).
	pcpu    int
	cval    sim.Time
	enabled bool
	gen     int // invalidates stale expiry events after reprogramming
	// Offset models CNTVOFF_EL2: the hypervisor-controlled offset
	// between physical and virtual counter views.
	Offset sim.Time
}

// NewVirtualTimer creates a disabled virtual timer delivering on pcpu.
func NewVirtualTimer(eng *sim.Engine, pcpu int, raise func(pcpu int)) *VirtualTimer {
	return &VirtualTimer{eng: eng, pcpu: pcpu, raise: raise}
}

// ReadCounter returns the guest's view of the virtual counter
// (physical time minus CNTVOFF). Reading it never traps.
func (t *VirtualTimer) ReadCounter() sim.Time { return t.eng.Now() - t.Offset }

// Program sets the compare value (in guest virtual counter units) and
// enables the timer. This models the guest's CNTV_CVAL/CNTV_CTL writes,
// which do not trap.
func (t *VirtualTimer) Program(cval sim.Time) {
	t.cval = cval
	t.enabled = true
	t.gen++
	gen := t.gen
	fireAt := cval + t.Offset
	if fireAt < t.eng.Now() {
		fireAt = t.eng.Now()
	}
	t.eng.At(fireAt, func() {
		if t.gen != gen || !t.enabled {
			return // reprogrammed or cancelled
		}
		t.enabled = false
		t.raise(t.pcpu)
	})
}

// ProgramAfter arms the timer d cycles of guest time from now.
func (t *VirtualTimer) ProgramAfter(d sim.Time) { t.Program(t.ReadCounter() + d) }

// Cancel disables the timer (CNTV_CTL.ENABLE = 0).
func (t *VirtualTimer) Cancel() {
	t.enabled = false
	t.gen++
}

// Enabled reports whether the timer is armed.
func (t *VirtualTimer) Enabled() bool { return t.enabled }

// PeriodicTick drives a fixed-rate tick (a guest's scheduler tick) by
// rearming the timer from a handler. Returns a stop function. onTick runs
// at each expiry *after* the physical PPI has been raised and should model
// the guest-side handler work.
func PeriodicTick(eng *sim.Engine, t *VirtualTimer, period sim.Time, onTick func()) (stop func()) {
	stopped := false
	orig := t.raise
	t.raise = func(pcpu int) {
		orig(pcpu)
		if onTick != nil {
			onTick()
		}
		if !stopped {
			t.ProgramAfter(period)
		}
	}
	t.ProgramAfter(period)
	return func() {
		stopped = true
		t.Cancel()
		t.raise = orig
	}
}
