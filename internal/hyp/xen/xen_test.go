package xen_test

import (
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/hyp/xen"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

func TestXenBootArmsEL2Permanently(t *testing.T) {
	pl := platform.NewXenARM()
	for _, c := range pl.Machine.CPUs {
		if c.P.Mode() != cpu.EL2 {
			t.Errorf("cpu%d boots in %v, want EL2", c.P.ID(), c.P.Mode())
		}
		if !c.P.Stage2Enabled() || !c.P.TrapsEnabled() {
			t.Errorf("cpu%d: Xen arms Stage-2 and traps once at boot", c.P.ID())
		}
	}
}

func TestLightTrapDoesNotEvictGuestState(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, v)
		h.Hypercall(p, v)
		// Xen's fast hypercall path never moves the EL1 state: EL2 has
		// its own register file.
		if v.CPU.P.Resident(cpu.EL1Sys).Owner != "domU" {
			t.Error("hypercall must not evict guest EL1 state")
		}
		if !v.Resident || !v.InGuest {
			t.Error("VCPU state flags wrong after hypercall")
		}
		h.ExitGuest(p, v)
		if v.Resident {
			t.Error("teardown should save the VM state")
		}
	})
	h.Machine().Eng.Run()
}

func TestDom0Creation(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	dom0 := h.NewDom0([]int{4, 5})
	if dom0.Name != "dom0" || len(dom0.VCPUs) != 2 {
		t.Fatalf("dom0 = %+v", dom0)
	}
	if h.Dom0() != dom0 {
		t.Error("Dom0 accessor broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("second NewDom0 should panic")
		}
	}()
	h.NewDom0([]int{6})
}

func TestBlockedVCPUWakesThroughIdleDomain(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	eng := h.Machine().Eng
	var wakeCost sim.Time
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		t0 := p.Now()
		virq := g.WaitVirq(p, false) // idles: Xen switches to the idle domain
		wakeCost = p.Now() - t0
		if virq != hyp.VirqVirtioNet {
			t.Errorf("woke with virq %d", virq)
		}
		g.Complete(p, virq)
	})
	eng.Go("injector", func(p *sim.Proc) {
		p.Sleep(20000) // let the guest reach idle
		v.PostSoft(hyp.VirqVirtioNet)
		h.Machine().SendIPI(p, 0, hyp.SGIKick)
	})
	eng.Run()
	// The wake must include the full idle->VCPU switch: at least the
	// scheduler cost plus the state restore (~4,500 cycles), on top of
	// the 20,000-cycle injector delay.
	if wakeCost < 20000+4500 {
		t.Errorf("wake cost %d too small: missing the idle-domain switch", wakeCost)
	}
}

func TestSwitchVMFullContextMove(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	vm1 := h.NewVM("vm1", []int{0})
	vm2 := h.NewVM("vm2", []int{0})
	a, b := vm1.VCPUs[0], vm2.VCPUs[0]
	eng := h.Machine().Eng
	var switchCost sim.Time
	eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, a)
		t0 := p.Now()
		h.SwitchVM(p, a, b)
		switchCost = p.Now() - t0
		if a.Resident || !b.Resident {
			t.Error("residency wrong after switch")
		}
		h.ExitGuest(p, b)
	})
	eng.Run()
	if switchCost != 8799 {
		t.Errorf("Xen ARM VM switch = %d cycles, want 8799 (Table II)", switchCost)
	}
}

func TestNotifyGuestRequiresDom0VCPU(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("NotifyGuest without a Dom0 VCPU should panic")
			}
		}()
		h.NotifyGuest(p, nil, v, hyp.VirqVirtioNet)
	})
	h.Machine().Eng.Run()
}

func TestKickBackendRequiresDom0(t *testing.T) {
	pl := platform.NewXenARM()
	h := pl.Xen
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	b := hyp.NewBackend(h.Machine().Eng, "b", h.Machine().CPUs[4])
	h.Machine().Eng.Go("t", func(p *sim.Proc) {
		h.EnterGuest(p, v)
		defer func() {
			if recover() == nil {
				t.Error("KickBackend without Dom0 VCPU should panic")
			}
		}()
		h.KickBackend(p, v, b)
	})
	h.Machine().Eng.Run()
}

func TestXenNames(t *testing.T) {
	if platform.NewXenARM().Xen.Name() != "Xen ARM" {
		t.Error("name")
	}
	if platform.NewXenX86().Xen.Name() != "Xen x86" {
		t.Error("name")
	}
	if platform.NewXenARM().Xen.HType() != hyp.Type1 {
		t.Error("Xen is Type 1")
	}
}

func TestX86XenGuestOps(t *testing.T) {
	pl := platform.NewXenX86()
	h := pl.Xen
	exits := recordExits(h)
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	eng := h.Machine().Eng
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		t0 := p.Now()
		g.Hypercall(p)
		if c := p.Now() - t0; c != 1228 {
			t.Errorf("x86 Xen hypercall = %d, want 1228", c)
		}
		t0 = p.Now()
		g.GICTrap(p)
		if c := p.Now() - t0; c != 1734 {
			t.Errorf("x86 Xen APIC access = %d, want 1734", c)
		}
		// EOI trap-and-emulate path.
		v.InjectVirq(0x31)
		virq := g.WaitVirq(p, true)
		t0 = p.Now()
		g.Complete(p, virq)
		if c := p.Now() - t0; c != 1464 {
			t.Errorf("x86 Xen EOI = %d, want 1464", c)
		}
		// Stage-2 (EPT) fault.
		g.TouchPage(p, 0x7000_0000, true)
	})
	eng.Run()
	if ex := exits(v); ex["stage2-fault"] != 1 {
		t.Errorf("exits = %v", ex)
	}
}

func TestX86XenSwitchVM(t *testing.T) {
	pl := platform.NewXenX86()
	h := pl.Xen
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
		h.ExitGuest(p, b)
	})
	eng.Run()
	if cost != 10534 {
		t.Errorf("Xen x86 VM switch = %d, want 10534 (Table II)", cost)
	}
}

func TestXenVAPICCompletion(t *testing.T) {
	m := platform.X86Machine(true) // vAPIC on
	h := xen.New(m, platform.XenX86Costs())
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		v.InjectVirq(0x31)
		virq := g.WaitVirq(p, true)
		t0 := p.Now()
		g.Complete(p, virq)
		if c := p.Now() - t0; c != 200 {
			t.Errorf("vAPIC completion = %d, want 200", c)
		}
	})
	m.Eng.Run()
}

func TestX86XenBlockAndWake(t *testing.T) {
	pl := platform.NewXenX86()
	h := pl.Xen
	vm := h.NewVM("domU", []int{0})
	v := vm.VCPUs[0]
	eng := h.Machine().Eng
	woke := false
	hyp.Run(h, "guest", v, func(p *sim.Proc, g *hyp.Guest) {
		virq := g.WaitVirq(p, false)
		woke = true
		g.Complete(p, virq)
	})
	eng.Go("injector", func(p *sim.Proc) {
		p.Sleep(5000)
		v.PostSoft(hyp.VirqVirtioNet)
		h.Machine().SendIPI(p, 0, hyp.SGIKick)
	})
	eng.Run()
	if !woke {
		t.Fatal("x86 Xen guest never woke")
	}
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
