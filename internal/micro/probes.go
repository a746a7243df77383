package micro

import (
	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/sim"
)

// VirqDeliveryBusy measures the receiver-side cost of delivering a virtual
// interrupt to a VCPU that is busy executing guest code: the
// exit-ack-inject-reenter-vector path. This is not a Table II row; it is
// the per-event cost the application models (§V) need — the paper
// attributes the Apache and Memcached bottleneck to exactly this path
// concentrated on a single VCPU.
func VirqDeliveryBusy(h hyp.Hypervisor) Result {
	vm := h.NewVM("vm0", guestPin[:2])
	sender, receiver := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	handled := sim.NewQueue[sim.Time](eng, "probe-handled")
	total := Warmup + Iterations

	var samples []cpu.Cycles
	hyp.Run(h, "probe-receiver", receiver, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			// Busy in guest: the delivery interrupts real work.
			d := receiver.CPU.IRQ.Recv(p)
			t0 := p.Now()
			h.HandlePhysIRQ(p, receiver, d)
			virq := g.WaitVirq(p, true)
			if i >= Warmup {
				samples = append(samples, cpu.Cycles(p.Now()-t0))
			}
			g.Complete(p, virq)
			handled.Send(p.Now())
		}
	})
	hyp.Run(h, "probe-sender", sender, func(p *sim.Proc, g *hyp.Guest) {
		for i := 0; i < total; i++ {
			g.SendIPI(p, receiver)
			handled.Recv(p)
		}
	})
	eng.Run()
	return summarize("Virq Delivery (busy guest)", samples)
}

// PathCosts summarizes the simulated platform's primitive path costs for
// consumption by the application workload models. All values in cycles on
// the platform's clock.
type PathCosts struct {
	// Label is the platform name.
	Label string
	// FreqMHz converts to wall time.
	FreqMHz int
	// Type1 is true for Xen.
	Type1 bool
	// The Table II rows.
	Hypercall    cpu.Cycles
	GICTrap      cpu.Cycles
	VirtIPI      cpu.Cycles
	VirqComplete cpu.Cycles
	VMSwitch     cpu.Cycles
	IOOut        cpu.Cycles
	IOIn         cpu.Cycles
	// VirqDeliverBusy is the probe above.
	VirqDeliverBusy cpu.Cycles
}

// Micros converts cycles to microseconds on this platform.
func (pc PathCosts) Micros(c cpu.Cycles) float64 {
	return float64(c) / float64(pc.FreqMHz)
}

// PathCostsHeader returns h's platform fields — Label, FreqMHz and Type1 —
// with every cycle field zero. Read it before a benchmark runs on h.
func PathCostsHeader(h hyp.Hypervisor) PathCosts {
	return PathCosts{
		Label:   h.Name(),
		FreqMHz: h.Machine().Cost.FreqMHz,
		Type1:   h.HType() == hyp.Type1,
	}
}

// MeasurePathCosts runs the suite and the probe, each against a fresh
// platform from newHyp, and assembles the PathCosts the workload models
// consume.
func MeasurePathCosts(newHyp func() hyp.Hypervisor) PathCosts {
	return PathCostsFrom(newHyp, RunAll(newHyp))
}

// PathCostsFrom assembles the PathCosts of newHyp's platform from results,
// the seven Table II rows as RunAll returns them, plus the header and the
// busy-guest probe, measured on one fresh platform from newHyp. A caller
// that already ran the suite reuses it instead of measuring it again.
func PathCostsFrom(newHyp func() hyp.Hypervisor, results []Result) PathCosts {
	h := newHyp()
	pc := PathCostsHeader(h)
	pc.Hypercall = results[0].Cycles
	pc.GICTrap = results[1].Cycles
	pc.VirtIPI = results[2].Cycles
	pc.VirqComplete = results[3].Cycles
	pc.VMSwitch = results[4].Cycles
	pc.IOOut = results[5].Cycles
	pc.IOIn = results[6].Cycles
	pc.VirqDeliverBusy = VirqDeliveryBusy(h).Cycles
	return pc
}
