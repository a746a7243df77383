package micro

import (
	"armvirt/internal/cpu"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
)

// TracedOps lists the operations ProfileOp accepts.
var TracedOps = []string{"hypercall", "gictrap", "vmswitch", "virqcomplete", "stage2fault"}

// OpProfile is one operation's span profile: the Table III methodology
// generalized — the full phase tree the profiler recorded while the
// operation ran, whose flat view (Profile.Charges) is the Table III
// breakdown.
type OpProfile struct {
	// Op is the TracedOps key ("hypercall", "vmswitch", ...).
	Op string
	// Name is the display name ("Hypercall", "VM Switch", ...).
	Name string
	// Platform is the hypervisor's display name ("KVM ARM", ...).
	Platform string
	// FreqMHz is the platform frequency, for cycle→time conversion.
	FreqMHz int
	// Cycles is the measured single-operation total. The profiler
	// attributes every cycle, so Profile.Total() == Cycles.
	Cycles cpu.Cycles
	// Profile is the span tree recorded over exactly the measured window.
	Profile *obs.Profile
}

// ProfileOp runs one operation (a TracedOps name) on a freshly built
// platform h with the span profiler attached: warm one operation to reach
// steady state, reset the profile, measure exactly one operation, and take
// the profile of that window. A recorder already attached to the machine
// (a full event trace, say) is used as it is and stays attached; otherwise
// ProfileOp attaches a small one.
func ProfileOp(h hyp.Hypervisor, op string) OpProfile {
	switch op {
	case "hypercall":
		return profileSingle(h, op, "Hypercall", "hypercall-breakdown", func(p *sim.Proc, g *hyp.Guest) {
			g.Hypercall(p)
		})
	case "gictrap":
		return profileSingle(h, op, "Interrupt Controller Trap", "traced-Interrupt Controller Trap", func(p *sim.Proc, g *hyp.Guest) {
			g.GICTrap(p)
		})
	case "virqcomplete":
		return profileSingle(h, op, "Virtual IRQ Completion", "traced-Virtual IRQ Completion", func(p *sim.Proc, g *hyp.Guest) {
			g.V.InjectVirq(hyp.VirqGuestIPI)
			virq := g.WaitVirq(p, true)
			g.Complete(p, virq)
		})
	case "stage2fault":
		return profileSingle(h, op, "Stage-2 Fault", "traced-Stage-2 Fault", func(p *sim.Proc, g *hyp.Guest) {
			g.TouchPage(p, 0x5000_0000, true)
		})
	case "vmswitch":
		return profileVMSwitch(h)
	}
	panic("micro: unknown profiled op " + op)
}

// profileRecorder returns the machine's recorder, first attaching one
// when there is none. Only its span tree matters to ProfileOp, so the
// event rings of an attached one are kept tiny.
func profileRecorder(m *hw.Machine) *obs.Recorder {
	if m.Rec == nil {
		m.SetRecorder(obs.NewRecorder(m.NCPU(), 64))
	}
	return m.Rec
}

// profileSingle measures body once on a warm single-VCPU VM. proc names
// the guest fiber, which a full event trace shows.
func profileSingle(h hyp.Hypervisor, op, name, proc string, body func(p *sim.Proc, g *hyp.Guest)) OpProfile {
	m := h.Machine()
	rec := profileRecorder(m)
	vm := h.NewVM("vm0", guestPin[:1])
	out := OpProfile{Op: op, Name: name, Platform: h.Name(), FreqMHz: m.Cost.FreqMHz}
	hyp.Run(h, proc, vm.VCPUs[0], func(p *sim.Proc, g *hyp.Guest) {
		g.Hypercall(p) // warm residency state
		rec.ResetProfile()
		t0 := p.Now()
		body(p, g)
		// Take the profile before hyp.Run's teardown ExitGuest, so it
		// covers exactly the measured window.
		out.Cycles, out.Profile = cpu.Cycles(p.Now()-t0), rec.Profile()
	})
	m.Eng.Run()
	return out
}

func profileVMSwitch(h hyp.Hypervisor) OpProfile {
	m := h.Machine()
	rec := profileRecorder(m)
	vm1 := h.NewVM("vm1", guestPin[:1])
	vm2 := h.NewVM("vm2", guestPin[:1])
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	out := OpProfile{Op: "vmswitch", Name: "VM Switch", Platform: h.Name(), FreqMHz: m.Cost.FreqMHz}
	m.Eng.Go("traced-vmswitch", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		h.SwitchVM(p, a, b) // warm
		h.SwitchVM(p, b, a)
		rec.ResetProfile()
		t0 := p.Now()
		h.SwitchVM(p, a, b)
		out.Cycles, out.Profile = cpu.Cycles(p.Now()-t0), rec.Profile()
		h.ExitGuest(p, b)
	})
	m.Eng.Run()
	return out
}
