package kvm_test

import (
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

func TestEnterExitGuestStateMachine(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	pc := v.CPU.P
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		if pc.Mode() != cpu.EL1 {
			t.Errorf("split-mode host boots in %v, want EL1", pc.Mode())
		}
		h.EnterGuest(p, v)
		if !v.InGuest || !v.Resident {
			t.Error("VCPU should be in guest and resident")
		}
		if pc.Mode() != cpu.EL1 || !pc.Stage2Enabled() || !pc.TrapsEnabled() {
			t.Error("guest-runnable state wrong")
		}
		if pc.Resident(cpu.VGIC).Owner != "vm0" {
			t.Errorf("VGIC belongs to %v", pc.Resident(cpu.VGIC))
		}
		h.ExitGuest(p, v)
		if v.InGuest || v.Resident {
			t.Error("VCPU should be out of guest")
		}
		if pc.Stage2Enabled() {
			t.Error("split-mode host must run with Stage-2 disabled")
		}
		if pc.Resident(cpu.EL1Sys).Owner != "host" {
			t.Errorf("EL1Sys belongs to %v, want host", pc.Resident(cpu.EL1Sys))
		}
	})
	h.Machine().Eng.Run()
}

func TestVHEGuestStateStaysResidentAcrossExits(t *testing.T) {
	pl := platform.NewKVMARMVHE()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, v)
		h.Hypercall(p, v)
		// The VHE exit does not evict the guest's EL1/VGIC state: the
		// host lives in EL2 registers.
		if v.CPU.P.Resident(cpu.EL1Sys).Owner != "vm0" {
			t.Error("VHE exit should leave guest EL1 state resident")
		}
		if v.CPU.P.Mode() != cpu.EL1 {
			t.Errorf("back in guest: mode %v", v.CPU.P.Mode())
		}
		h.ExitGuest(p, v)
		if v.CPU.P.Mode() != cpu.EL2 {
			t.Errorf("VHE host runs in %v, want EL2", v.CPU.P.Mode())
		}
	})
	h.Machine().Eng.Run()
}

func TestVGICContentsSurviveWorldSwitch(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, v)
		v.CPU.VIface.Inject(40)
		h.Hypercall(p, v) // full save + restore of the VGIC image
		if got := v.CPU.VIface.PendingVirq(); got != 40 {
			t.Errorf("pending virq after world switch = %d, want 40", got)
		}
		v.CPU.VIface.Ack(40)
		v.CPU.VIface.Complete(40)
		h.ExitGuest(p, v)
	})
	h.Machine().Eng.Run()
}

func TestPendingSoftDrainsOnKick(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0, 1})
	a, b := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	got := make(chan gic.IRQ, 1)
	hyp.Run(h, "receiver", b, func(p *sim.Proc, g *hyp.Guest) {
		virq := g.WaitVirq(p, true)
		got <- virq
		g.Complete(p, virq)
	})
	hyp.Run(h, "sender", a, func(p *sim.Proc, g *hyp.Guest) {
		g.SendIPI(p, b)
	})
	eng.Run()
	select {
	case virq := <-got:
		if virq != hyp.VirqGuestIPI {
			t.Errorf("received %d, want %d", virq, hyp.VirqGuestIPI)
		}
	default:
		t.Fatal("virtual IPI never delivered")
	}
	if len(b.PendingSoft) != 0 {
		t.Error("pending soft list should be drained")
	}
}

func TestSwitchVMMovesResidency(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm1 := h.NewVM("vm1", []int{0})
	vm2 := h.NewVM("vm2", []int{0})
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		h.SwitchVM(p, a, b)
		if a.Resident || !b.Resident {
			t.Error("residency did not move")
		}
		if a.InGuest || !b.InGuest {
			t.Error("in-guest flags wrong after switch")
		}
		pc := a.CPU.P
		if pc.Resident(cpu.EL1Sys).Owner != "vm2" {
			t.Errorf("EL1Sys belongs to %v", pc.Resident(cpu.EL1Sys))
		}
		h.ExitGuest(p, b)
	})
	h.Machine().Eng.Run()
}

func TestX86VMCSCurrentTracking(t *testing.T) {
	pl := platform.NewKVMX86()
	h := pl.KVM
	vm1 := h.NewVM("vm1", []int{0})
	vm2 := h.NewVM("vm2", []int{0})
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	eng := h.Machine().Eng
	eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		t0 := p.Now()
		h.Hypercall(p, a) // same VMCS: no vmclear/vmptrld
		sameVM := p.Now() - t0
		t1 := p.Now()
		h.SwitchVM(p, a, b) // different VMCS: pays the switch
		crossVM := p.Now() - t1
		if crossVM <= sameVM {
			t.Errorf("VM-to-VM switch (%d) should cost more than a hypercall (%d)", crossVM, sameVM)
		}
		if a.CPU.P.Resident(cpu.VMCS).Owner != "vm2" {
			t.Error("current VMCS should be vm2's")
		}
		h.ExitGuest(p, b)
	})
	eng.Run()
}

func TestDoubleEnterPanics(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("double EnterGuest should panic")
			}
		}()
		h.EnterGuest(p, v)
		h.EnterGuest(p, v)
	})
	h.Machine().Eng.Run()
}

func TestVHESwitchVMMovesFullState(t *testing.T) {
	pl := platform.NewKVMARMVHE()
	h := pl.KVM
	vm1 := h.NewVM("vm1", []int{0})
	vm2 := h.NewVM("vm2", []int{0})
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	eng := h.Machine().Eng
	var cost sim.Time
	eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		t0 := p.Now()
		h.SwitchVM(p, a, b)
		cost = p.Now() - t0
		if a.Resident || !b.Resident {
			t.Error("VHE VM switch residency wrong")
		}
		h.ExitGuest(p, b)
	})
	eng.Run()
	// A VHE VM-to-VM switch still moves the guest state (VGIC included):
	// it cannot be much cheaper than the split-mode switch.
	if cost < 8000 || cost > 11000 {
		t.Errorf("VHE VM switch = %d cycles, want VM-switch scale", cost)
	}
}

func TestVHEGuestOpCosts(t *testing.T) {
	pl := platform.NewKVMARMVHE()
	h := pl.KVM
	exits := recordExits(h)
	vm := h.NewVM("vm0", []int{0, 1})
	a, b := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	hyp.Run(h, "receiver", b, func(p *sim.Proc, g *hyp.Guest) {
		virq := g.WaitVirq(p, true)
		g.Complete(p, virq)
	})
	hyp.Run(h, "sender", a, func(p *sim.Proc, g *hyp.Guest) {
		t0 := p.Now()
		g.Hypercall(p)
		if c := p.Now() - t0; c != 508 {
			t.Errorf("VHE hypercall = %d, want 508", c)
		}
		g.GICTrap(p)
		g.TouchPage(p, 0x7000_0000, true)
		g.SendIPI(p, b)
	})
	eng.Run()
	if ex := exits(a); ex["stage2-fault"] != 1 || ex["sgi"] != 1 {
		t.Errorf("exits = %v", ex)
	}
}

func TestX86BlockAndVAPIC(t *testing.T) {
	m := platform.X86Machine(true) // vAPIC
	h := kvmNew(m)
	exits := recordExits(h)
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	eng := m.Eng
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		virq := g.WaitVirq(p, false) // HLT: blocks
		t0 := p.Now()
		g.Complete(p, virq)
		if c := p.Now() - t0; c != 200 {
			t.Errorf("vAPIC completion = %d, want 200", c)
		}
	})
	eng.Go("notifier", func(p *sim.Proc) {
		p.Sleep(3000)
		h.NotifyGuest(p, nil, v, hyp.VirqVirtioNet)
	})
	eng.Run()
	if ex := exits(v); ex["wfi"] != 1 {
		t.Errorf("exits = %v", ex)
	}
}

func TestX86KickBackendNoIPI(t *testing.T) {
	pl := platform.NewKVMX86()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	b := hyp.NewBackend(h.Machine().Eng, "vhost", h.Machine().CPUs[4])
	eng := h.Machine().Eng
	var kicked, received sim.Time
	eng.Go("vhost", func(p *sim.Proc) {
		b.Inbox.Recv(p)
		received = p.Now()
	})
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		t0 := p.Now()
		g.KickBackend(p, b)
		kicked = t0
	})
	eng.Run()
	// Table II: x86 I/O Latency Out = 560 cycles, essentially the exit
	// plus the ioeventfd signal (hot vhost worker, no IPI).
	if received-kicked != 560 {
		t.Errorf("x86 kick latency = %d, want 560", received-kicked)
	}
}

func TestNameAndType(t *testing.T) {
	if n := platform.NewKVMARM().KVM.Name(); n != "KVM ARM" {
		t.Error(n)
	}
	if n := platform.NewKVMARMVHE().KVM.Name(); n != "KVM ARM (VHE)" {
		t.Error(n)
	}
	if n := platform.NewKVMX86().KVM.Name(); n != "KVM x86" {
		t.Error(n)
	}
	if platform.NewKVMARM().KVM.HType() != hyp.Type2 {
		t.Error("KVM is Type 2")
	}
}

func TestExitAccounting(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	exits := recordExits(h)
	vm := h.NewVM("vm0", []int{0, 1})
	a, b := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	hyp.Run(h, "receiver", b, func(p *sim.Proc, g *hyp.Guest) {
		virq := g.WaitVirq(p, true)
		g.Complete(p, virq)
	})
	hyp.Run(h, "sender", a, func(p *sim.Proc, g *hyp.Guest) {
		g.Hypercall(p)
		g.Hypercall(p)
		g.GICTrap(p)
		g.SendIPI(p, b)
		g.TouchPage(p, 0x6000_0000, true)
	})
	eng.Run()
	sent := exits(a)
	want := map[string]int64{"hypercall": 2, "mmio": 1, "sgi": 1, "stage2-fault": 1}
	for reason, n := range want {
		if sent[reason] != n {
			t.Errorf("sender exits[%s] = %d, want %d (all: %v)", reason, sent[reason], n, sent)
		}
	}
	var total int64
	for _, n := range sent {
		total += n
	}
	if total != 5 {
		t.Errorf("sender total exits = %d, want 5", total)
	}
	if ex := exits(b); ex["irq"] != 1 {
		t.Errorf("receiver exits = %v, want one irq exit", ex)
	}
}

func TestRegisterLevelGICAccess(t *testing.T) {
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0, 1})
	a, b := vm.VCPUs[0], vm.VCPUs[1]
	eng := h.Machine().Eng
	var received gic.IRQ = -1
	hyp.Run(h, "receiver", b, func(p *sim.Proc, g *hyp.Guest) {
		received = g.WaitVirq(p, true)
		g.Complete(p, received)
	})
	hyp.Run(h, "sender", a, func(p *sim.Proc, g *hyp.Guest) {
		// Boot-style distributor programming, each access trapped.
		typer := g.GICRead(p, gic.GICDTyper)
		if typer&0x1F == 0 {
			t.Error("TYPER should report interrupt lines")
		}
		g.GICWrite(p, gic.GICDCtlr, 1)
		g.GICWrite(p, gic.GICDIsenabler+4, 0xFFFFFFFF) // enable SPIs 32-63
		if !vm.VGICDist.Enabled(40) {
			t.Error("register write did not reach the vgic state")
		}
		t0 := p.Now()
		g.GICRead(p, gic.GICDCtlr)
		if cost := p.Now() - t0; cost != 7370 {
			t.Errorf("register read cost %d, want the 7370-cycle Interrupt Controller Trap", cost)
		}
		// SGI through GICD_SGIR: targets VCPU 1.
		g.GICWrite(p, gic.GICDSgir, uint32(0b10)<<16|5)
	})
	eng.Run()
	if received != hyp.VirqGuestIPI {
		t.Errorf("SGIR write delivered %d, want virtual IPI", received)
	}
}

func TestTimerDeliveryThroughHypervisor(t *testing.T) {
	// A physical timer PPI arriving while in guest becomes the guest's
	// timer virq (§II: the virtual timer fires as a physical interrupt
	// the hypervisor must translate).
	pl := platform.NewKVMARM()
	h := pl.KVM
	vm := h.NewVM("vm0", []int{0})
	v := vm.VCPUs[0]
	eng := h.Machine().Eng
	var got gic.IRQ = -1
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		h.Machine().Dist.RaisePPI(0, 27)
		got = g.WaitVirq(p, true)
		g.Complete(p, got)
	})
	eng.Run()
	if got != hyp.VirqTimer {
		t.Errorf("timer delivered as virq %d, want %d", got, hyp.VirqTimer)
	}
}

// kvmNew builds a KVM instance on an arbitrary machine with the standard
// x86 cost table.
func kvmNew(m *hw.Machine) *kvm.KVM {
	return kvm.New(m, platform.KVMX86Costs(), false)
}

// recordExits attaches an event recorder to h's machine and returns a
// lookup of one VCPU's GuestExit events in it, counted by exit reason.
func recordExits(h hyp.Hypervisor) func(v *hyp.VCPU) map[string]int64 {
	rec := obs.NewRecorder(h.Machine().NCPU(), 256)
	h.Machine().SetRecorder(rec)
	return func(v *hyp.VCPU) map[string]int64 {
		n := map[string]int64{}
		for _, e := range rec.Events() {
			if e.Kind == obs.GuestExit && e.VM == v.VM.Name && e.VCPU == v.ID {
				n[e.Detail]++
			}
		}
		return n
	}
}
