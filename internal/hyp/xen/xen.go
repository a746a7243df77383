package xen

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/mem"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
)

// armVMClasses is the register state Xen context switches when changing
// which VM occupies a physical CPU. It matches split-mode KVM's set — both
// must move the EL1 state, the VGIC state, timers, and the per-VM EL2
// configuration — which is why the VM Switch microbenchmark shows the two
// hypervisors much closer together than the Hypercall microbenchmark does.
var armVMClasses = []cpu.RegClass{
	cpu.GP, cpu.FP, cpu.EL1Sys, cpu.VGIC, cpu.Timer, cpu.EL2Config, cpu.EL2VM,
}

// Xen is the Type 1 hypervisor model.
type Xen struct {
	m     *hw.Machine
	c     Costs
	vmSeq int
	// dom0 is the privileged backend domain, created by NewDom0.
	dom0 *hyp.VM
	// resident tracks which VCPU's state occupies each PCPU (nil when
	// the idle domain or Xen itself runs there).
	resident []*hyp.VCPU
	// nextPA is the bump allocator for machine pages backing guest
	// memory.
	nextPA mem.PA
	// evtchn holds each domain's event channel table, keyed by VMID.
	evtchn map[int]*EvtchnTable
	// ioChannels caches the interdomain channel pair connecting each
	// DomU to Dom0 for paravirtual I/O.
	ioChannels map[int]ioChannel
}

// ioChannel is the bound port pair of one DomU<->Dom0 I/O connection.
type ioChannel struct {
	// GuestPort is the DomU-side port; Dom0Port the Dom0 side.
	GuestPort, Dom0Port Port
}

// New boots Xen on m. On ARM, Xen owns EL2 outright: Stage-2 and traps are
// armed once at boot and never toggled on the hypercall path — one of the
// structural advantages over split-mode KVM.
func New(m *hw.Machine, c Costs) *Xen {
	x := &Xen{
		m: m, c: c,
		resident:   make([]*hyp.VCPU, m.NCPU()),
		nextPA:     0x8000_0000,
		evtchn:     map[int]*EvtchnTable{},
		ioChannels: map[int]ioChannel{},
	}
	for _, pc := range m.CPUs {
		if m.Arch == cpu.ARM {
			pc.P.EnableStage2()
			pc.P.EnableTraps()
		}
	}
	return x
}

// Name implements hyp.Hypervisor.
func (x *Xen) Name() string {
	if x.m.Arch == cpu.X86 {
		return "Xen x86"
	}
	return "Xen ARM"
}

// HType implements hyp.Hypervisor.
func (x *Xen) HType() hyp.Type { return hyp.Type1 }

// Machine implements hyp.Hypervisor.
func (x *Xen) Machine() *hw.Machine { return x.m }

// Costs returns the software cost table.
func (x *Xen) Costs() Costs { return x.c }

// NewVM implements hyp.Hypervisor (creates a DomU).
func (x *Xen) NewVM(name string, pin []int) *hyp.VM {
	x.vmSeq++
	vm := hyp.NewVMCommon(x, name, x.vmSeq, pin)
	x.evtchn[vm.VMID] = NewEvtchnTable(vm.VMID)
	return vm
}

// ioChannel lazily establishes the interdomain channel pair between a DomU
// and Dom0, as the PV frontend/backend handshake does at connect time.
func (x *Xen) ioChannel(vm *hyp.VM) ioChannel {
	if ch, ok := x.ioChannels[vm.VMID]; ok {
		return ch
	}
	if x.dom0 == nil {
		panic("xen: I/O channel setup before Dom0 exists")
	}
	guestT := x.evtchn[vm.VMID]
	dom0T := x.evtchn[x.dom0.VMID]
	unbound := dom0T.AllocUnbound(vm.VMID)
	guestPort, err := guestT.BindInterdomain(dom0T, unbound)
	if err != nil {
		panic(err)
	}
	ch := ioChannel{GuestPort: guestPort, Dom0Port: unbound}
	x.ioChannels[vm.VMID] = ch
	return ch
}

// NewDom0 creates the privileged backend domain. Dom0 has direct access to
// the hardware Xen delegates (NIC, storage); its VCPUs are pinned to a
// dedicated set of PCPUs per the paper's methodology.
func (x *Xen) NewDom0(pin []int) *hyp.VM {
	if x.dom0 != nil {
		panic("xen: Dom0 already exists")
	}
	x.vmSeq++
	x.dom0 = hyp.NewVMCommon(x, "dom0", x.vmSeq, pin)
	x.evtchn[x.dom0.VMID] = NewEvtchnTable(x.dom0.VMID)
	return x.dom0
}

// Dom0 returns the privileged domain (nil before NewDom0).
func (x *Xen) Dom0() *hyp.VM { return x.dom0 }

// --- transitions -------------------------------------------------------------

// lightTrap is the Xen fast path into the hypervisor: hardware trap plus a
// partial GP spill. Nothing else moves — EL2 has its own register file.
func (x *Xen) lightTrap(p *sim.Proc, v *hyp.VCPU) {
	if !v.InGuest {
		panic(fmt.Sprintf("xen: trap from %v which is not in guest", v))
	}
	v.InSpan(p, "light-trap", func() {
		if x.m.Arch == cpu.X86 {
			v.Charge(p, "VM exit (VMCS hardware switch)", x.m.Cost.VMExitHW)
			v.CPU.P.Trap()
			v.InGuest = false
			return
		}
		v.Charge(p, "trap to EL2", x.m.Cost.TrapToEL2)
		v.CPU.P.Trap()
		v.Charge(p, "GP Regs: partial save", x.c.GPSaveFast)
		v.InGuest = false
	})
}

// lightReturn resumes the trapped guest.
func (x *Xen) lightReturn(p *sim.Proc, v *hyp.VCPU) {
	v.InSpan(p, "light-return", func() {
		if x.m.Arch == cpu.X86 {
			v.Charge(p, "VM entry (VMCS hardware switch)", x.m.Cost.VMEntryHW)
			v.CPU.P.EnterGuestKernel()
			v.InGuest = true
			v.Emit(obs.GuestEnter, "", 0)
			return
		}
		v.Charge(p, "GP Regs: partial restore", x.c.GPRestoreFast)
		v.Charge(p, "eret to guest", x.m.Cost.ERET)
		v.CPU.P.EnterGuestKernel()
		v.InGuest = true
		v.Emit(obs.GuestEnter, "", 0)
	})
}

// saveVMState moves a VCPU's full state out of the hardware (the expensive
// half of a VM switch). ARM only; x86 state lives in the VMCS.
func (x *Xen) saveVMState(p *sim.Proc, v *hyp.VCPU) {
	v.InSpan(p, "save-vm-state", func() {
		v.ChargeState(p, armVMClasses, hyp.Save)
		v.VgicImage = v.CPU.VIface.SaveImage()
		v.CPU.P.SaveState(v.Ctx, armVMClasses...)
		x.resident[v.CPU.P.ID()] = nil
		v.Resident = false
	})
}

// loadVMState loads a VCPU's full state into the hardware.
func (x *Xen) loadVMState(p *sim.Proc, v *hyp.VCPU) {
	if cur := x.resident[v.CPU.P.ID()]; cur != nil {
		panic(fmt.Sprintf("xen: loading %v while %v still resident", v, cur))
	}
	v.InSpan(p, "load-vm-state", func() {
		v.ChargeState(p, armVMClasses, hyp.Restore)
		v.CPU.VIface.LoadImage(v.VgicImage)
		v.CPU.P.LoadState(v.Ctx, armVMClasses...)
		x.resident[v.CPU.P.ID()] = v
		v.Resident = true
	})
}

// EnterGuest implements hyp.Hypervisor: the initial VM entry.
func (x *Xen) EnterGuest(p *sim.Proc, v *hyp.VCPU) {
	if v.InGuest {
		panic(fmt.Sprintf("xen: EnterGuest for %v already in guest", v))
	}
	pc := v.CPU
	if x.m.Arch == cpu.X86 {
		cur := x.resident[pc.P.ID()]
		if cur != v {
			v.Charge(p, "VMCS switch (vmclear/vmptrld)", x.m.Cost.VMCSSwitch)
			if cur != nil {
				pc.P.SaveState(cur.Ctx, cpu.VMCS)
				cur.Resident = false
			}
			pc.P.LoadState(v.Ctx, cpu.VMCS)
			x.resident[pc.P.ID()] = v
			v.Resident = true
		}
		v.Charge(p, "VM entry (VMCS hardware switch)", x.m.Cost.VMEntryHW)
		pc.P.EnterGuestKernel()
		v.InGuest = true
		pc.P.RequireGuestRunnable(v.Ctx)
		v.Emit(obs.GuestEnter, "", 0)
		return
	}
	x.loadVMState(p, v)
	v.Charge(p, "eret to guest", x.m.Cost.ERET)
	pc.P.EnterGuestKernel()
	v.InGuest = true
	pc.P.RequireGuestRunnable(v.Ctx)
	v.Emit(obs.GuestEnter, "", 0)
}

// ExitGuest implements hyp.Hypervisor: final exit at teardown.
func (x *Xen) ExitGuest(p *sim.Proc, v *hyp.VCPU) {
	if x.m.Arch == cpu.X86 {
		x.lightTrap(p, v)
		return
	}
	v.Charge(p, "trap to EL2", x.m.Cost.TrapToEL2)
	v.CPU.P.Trap()
	v.InGuest = false
	x.saveVMState(p, v)
}

// --- guest operations ---------------------------------------------------------

// Hypercall implements hyp.Hypervisor: Table II row 1. Xen's whole round
// trip is a light trap, a handler, and a return.
func (x *Xen) Hypercall(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("hypercall")
	v.InSpan(p, "hypercall", func() {
		x.lightTrap(p, v)
		v.Charge(p, "hypercall handler", x.c.Handler)
		x.lightReturn(p, v)
	})
}

// GICTrap implements hyp.Hypervisor: Table II row 2. Xen emulates the GIC
// distributor directly in EL2 (Figure 2), so only the light trap surrounds
// the emulation.
func (x *Xen) GICTrap(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("mmio")
	v.InSpan(p, "gic-trap", func() {
		x.lightTrap(p, v)
		if x.m.Arch == cpu.X86 {
			v.Charge(p, "APIC access emulation", x.c.APICAccess)
		} else {
			v.Charge(p, "GIC distributor emulation", x.c.GICDistEmulate)
		}
		x.lightReturn(p, v)
	})
}

// SendVirtIPI implements hyp.Hypervisor: Table II row 3, sender half.
func (x *Xen) SendVirtIPI(p *sim.Proc, v *hyp.VCPU, target *hyp.VCPU) {
	v.CountExit("sgi")
	v.InSpan(p, "send-virt-ipi", func() {
		x.lightTrap(p, v)
		v.Charge(p, "SGI emulation (distributor)", x.c.SGIEmulate)
		target.PostSoft(hyp.VirqGuestIPI)
		x.m.SendIPI(p, target.CPU.P.ID(), hyp.SGIVirtIPI)
		x.lightReturn(p, v)
	})
}

// HandlePhysIRQ implements hyp.Hypervisor: physical interrupts are always
// taken to EL2; Xen acks them, injects any resulting virtual interrupts,
// and resumes the guest — no EL1 round trip needed.
func (x *Xen) HandlePhysIRQ(p *sim.Proc, v *hyp.VCPU, d gic.Delivery) {
	v.CountExit("irq")
	v.InSpan(p, "phys-irq", func() {
		x.lightTrap(p, v)
		v.Charge(p, "Xen GIC ack/EOI", x.c.PhysIRQAck)
		for _, virq := range hyp.TranslateDelivery(v, d) {
			v.Charge(p, "virq inject", x.c.VirqInject)
			v.InjectVirq(virq)
		}
		x.lightReturn(p, v)
		v.Charge(p, "guest IRQ entry", x.c.GuestIRQEntry)
	})
}

// BlockInGuest implements hyp.Hypervisor: guest WFI. Xen deschedules the
// VCPU and runs the *idle domain* on the PCPU; waking requires a VM switch
// from the idle domain back to the VCPU — the heart of Xen's I/O latency
// problem (§IV).
func (x *Xen) BlockInGuest(p *sim.Proc, v *hyp.VCPU) {
	v.CountExit("wfi")
	v.InSpan(p, "wfi-block", func() {
		pc := v.CPU
		cm := x.m.Cost
		if x.m.Arch == cpu.X86 {
			v.Charge(p, "VM exit (VMCS hardware switch)", cm.VMExitHW)
			pc.P.Trap()
			v.InGuest = false
			v.Charge(p, "schedule idle domain", x.c.SchedToIdle)
			v.Emit(obs.VMSwitch, "to-idle", 0)
			d := pc.IRQ.Recv(p)
			if d.At > 0 {
				x.m.Tel.ObserveIRQLatency(pc.P.ID(), p.Now()-d.At)
			}
			v.Charge(p, "Xen IRQ ack", x.c.PhysIRQAck)
			v.Emit(obs.VMSwitch, "idle-wake", int64(d.IRQ))
			v.Charge(p, "idle domain -> VCPU switch", x.c.IdleWakeSched)
			for _, virq := range hyp.TranslateDelivery(v, d) {
				v.Charge(p, "virq inject", x.c.VirqInject)
				v.InjectVirq(virq)
			}
			v.Charge(p, "VM entry (VMCS hardware switch)", cm.VMEntryHW)
			pc.P.EnterGuestKernel()
			v.InGuest = true
			v.Emit(obs.GuestEnter, "", 0)
			v.Charge(p, "guest IRQ entry", x.c.GuestIRQEntry)
			return
		}
		v.Charge(p, "trap to EL2", cm.TrapToEL2)
		pc.P.Trap()
		v.InGuest = false
		x.saveVMState(p, v)
		v.Charge(p, "schedule idle domain", x.c.SchedToIdle)
		v.Emit(obs.VMSwitch, "to-idle", 0)
		d := pc.IRQ.Recv(p)
		if d.At > 0 {
			x.m.Tel.ObserveIRQLatency(pc.P.ID(), p.Now()-d.At)
		}
		v.Charge(p, "Xen GIC ack/EOI", x.c.PhysIRQAck)
		v.Emit(obs.VMSwitch, "idle-wake", int64(d.IRQ))
		v.Charge(p, "idle domain -> VCPU switch", x.c.IdleWakeSched)
		for _, virq := range hyp.TranslateDelivery(v, d) {
			v.Charge(p, "virq inject", x.c.VirqInject)
			v.InjectVirq(virq)
		}
		x.loadVMState(p, v)
		v.Charge(p, "eret to guest", cm.ERET)
		pc.P.EnterGuestKernel()
		v.InGuest = true
		v.Emit(obs.GuestEnter, "", 0)
		v.Charge(p, "guest IRQ entry", x.c.GuestIRQEntry)
	})
}

// CompleteVirq implements hyp.Hypervisor: Table II row 4 — identical
// hardware path to KVM on ARM (71 cycles, no trap), trap-and-emulate on
// x86 without vAPIC.
func (x *Xen) CompleteVirq(p *sim.Proc, v *hyp.VCPU, virq gic.IRQ) {
	cm := x.m.Cost
	v.InSpan(p, "virq-complete", func() {
		if x.m.Arch == cpu.ARM {
			v.Charge(p, "virq ack+complete (no trap)", cm.VirqCompleteHW)
			v.CPU.VIface.Complete(virq)
			v.CPU.VIface.RefillFromOverflow()
			return
		}
		if x.m.VAPIC {
			v.Charge(p, "virq ack+complete (vAPIC)", cm.VirqCompleteHW)
			v.CPU.LAPIC.EOIVirtual(virq)
			return
		}
		v.CountExit("eoi")
		x.lightTrap(p, v)
		v.Charge(p, "EOI emulation", x.c.EOIEmulate)
		v.CPU.LAPIC.EOIVirtual(virq)
		x.lightReturn(p, v)
	})
}

// SwitchVM implements hyp.Hypervisor: Table II row 5. Xen traps to EL2 and
// performs a single full context switch of the VM state.
func (x *Xen) SwitchVM(p *sim.Proc, from, to *hyp.VCPU) {
	if from.CPU != to.CPU {
		panic("xen: SwitchVM across physical CPUs")
	}
	from.CountExit("preempt")
	from.Emit(obs.VMSwitch, "sched", int64(to.VM.VMID))
	from.InSpan(p, "vm-switch", func() {
		cm := x.m.Cost
		if x.m.Arch == cpu.X86 {
			x.lightTrap(p, from)
			from.Charge(p, "Xen scheduler", x.c.SchedSwitch)
			x.EnterGuest(p, to)
			return
		}
		from.Charge(p, "trap to EL2", cm.TrapToEL2)
		from.CPU.P.Trap()
		from.InGuest = false
		x.saveVMState(p, from)
		from.Charge(p, "Xen scheduler", x.c.SchedSwitch)
		x.EnterGuest(p, to)
	})
}

// NotifyGuest implements hyp.Hypervisor: Dom0 signals a DomU through an
// event channel — a hypercall from Dom0, a pending-bit update, and a
// physical IPI toward the target VCPU (which, if idle, will pay the
// idle-domain switch on its side).
func (x *Xen) NotifyGuest(p *sim.Proc, from *hyp.VCPU, v *hyp.VCPU, virq gic.IRQ) {
	if from == nil {
		panic("xen: NotifyGuest requires the Dom0 VCPU it runs on")
	}
	from.Emit(obs.IOKick, "evtchn-notify", int64(virq))
	from.InSpan(p, "notify-guest", func() {
		from.Charge(p, "netback ring + grant bookkeeping", x.c.NotifyRingWork)
		x.lightTrap(p, from)
		from.Charge(p, "evtchn_send handler", x.c.EvtchnSend)
		if x.dom0 != nil && from.VM == x.dom0 && v.VM != x.dom0 {
			ch := x.ioChannel(v.VM)
			if _, err := x.evtchn[x.dom0.VMID].Send(x.evtchn[v.VM.VMID], ch.Dom0Port); err != nil {
				panic(err)
			}
		}
		v.PostSoft(virq)
		x.m.SendIPI(p, v.CPU.P.ID(), hyp.SGIKick)
		x.lightReturn(p, from)
	})
}

// KickBackend implements hyp.Hypervisor: a DomU kicks the Dom0 backend
// through an event channel. The guest traps to Xen, Xen marks the event
// pending for Dom0 and IPIs Dom0's PCPU; Dom0 — typically idling in the
// idle domain — pays the VM switch on wake (its BlockInGuest path).
func (x *Xen) KickBackend(p *sim.Proc, v *hyp.VCPU, b *hyp.Backend) {
	if b.Dom0VCPU == nil {
		panic("xen: backend has no Dom0 VCPU")
	}
	v.CountExit("evtchn-kick")
	v.Emit(obs.IOKick, "evtchn-kick", int64(b.Dom0VCPU.CPU.P.ID()))
	v.InSpan(p, "kick-backend", func() {
		x.lightTrap(p, v)
		v.Charge(p, "evtchn_send handler", x.c.EvtchnSend)
		ch := x.ioChannel(v.VM)
		if _, err := x.evtchn[v.VM.VMID].Send(x.evtchn[x.dom0.VMID], ch.GuestPort); err != nil {
			panic(err)
		}
		b.Dom0VCPU.PostSoft(hyp.VirqEvtchn)
		b.Inbox.Send(p.Now())
		x.m.SendIPI(p, b.Dom0VCPU.CPU.P.ID(), hyp.SGIKick)
		x.lightReturn(p, v)
	})
}

// Stage2Fault implements hyp.Hypervisor: Xen's P2M fault handling runs
// entirely in EL2 — a light trap, an allocation from the domain's
// reservation, and a table write — another place the Type 1 design's EL2
// residency pays off.
func (x *Xen) Stage2Fault(p *sim.Proc, v *hyp.VCPU, ipa mem.IPA) {
	v.CountExit("stage2-fault")
	v.Emit(obs.Stage2Fault, "", int64(ipa))
	v.InSpan(p, "stage2-fault", func() {
		v.Charge(p, "stage-2 fault (hw)", x.m.Cost.Stage2FaultHW)
		x.lightTrap(p, v)
		v.Charge(p, "Xen: allocate + map page", x.c.FaultWork)
		page := ipa &^ (mem.PageSize - 1)
		x.nextPA += mem.PageSize
		if err := v.VM.S2.Map(page, x.nextPA, mem.PermRWX); err != nil {
			panic(fmt.Sprintf("xen: p2m map: %v", err))
		}
		x.lightReturn(p, v)
	})
}

// BackendDispatch implements hyp.Hypervisor: after Dom0's VCPU wakes, the
// event-channel upcall scans the pending bitmap (the real table is
// scanned, validating that an event was actually sent) and wakes the
// netback worker.
func (x *Xen) BackendDispatch(p *sim.Proc, b *hyp.Backend) {
	b.Dom0VCPU.InSpan(p, "backend-dispatch", func() {
		b.Dom0VCPU.Charge(p, "evtchn upcall dispatch", x.c.UpcallDispatch)
		if ports := x.evtchn[x.dom0.VMID].ScanPending(); len(ports) == 0 {
			panic("xen: upcall with no pending event channel")
		}
		b.Dom0VCPU.Charge(p, "Dom0 worker wake", x.c.Dom0WorkerWake)
	})
}

var _ hyp.Hypervisor = (*Xen)(nil)
