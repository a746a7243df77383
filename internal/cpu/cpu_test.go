package cpu

import (
	"testing"
)

func TestModeStringAndHyp(t *testing.T) {
	cases := []struct {
		m   Mode
		s   string
		hyp bool
	}{
		{EL0, "EL0", false},
		{EL1, "EL1", false},
		{EL2, "EL2", true},
		{X86RootKernel, "root/kernel", true},
		{X86RootUser, "root/user", true},
		{X86NonRootKernel, "non-root/kernel", false},
		{X86NonRootUser, "non-root/user", false},
	}
	for _, c := range cases {
		if c.m.String() != c.s {
			t.Errorf("%v.String() = %q, want %q", int(c.m), c.m.String(), c.s)
		}
		if c.m.Hyp() != c.hyp {
			t.Errorf("%v.Hyp() = %v, want %v", c.m, c.m.Hyp(), c.hyp)
		}
	}
}

func TestPCPUBootsInHypMode(t *testing.T) {
	if m := NewPCPU(ARM, 0).Mode(); m != EL2 {
		t.Fatalf("ARM boots in %v, want EL2", m)
	}
	if m := NewPCPU(X86, 0).Mode(); m != X86RootKernel {
		t.Fatalf("x86 boots in %v, want root/kernel", m)
	}
}

func TestTrapAndReturnARM(t *testing.T) {
	p := NewPCPU(ARM, 0)
	p.EnableStage2()
	p.EnableTraps()
	p.EnterGuestKernel()
	if p.Mode() != EL1 {
		t.Fatalf("mode = %v, want EL1", p.Mode())
	}
	p.Trap()
	if p.Mode() != EL2 {
		t.Fatalf("mode = %v, want EL2", p.Mode())
	}
}

func TestTrapFromEL2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPCPU(ARM, 0).Trap()
}

func TestVMExitAndEntryX86(t *testing.T) {
	p := NewPCPU(X86, 0)
	p.EnterGuestKernel()
	if p.Mode() != X86NonRootKernel {
		t.Fatalf("mode = %v", p.Mode())
	}
	p.Trap()
	if p.Mode() != X86RootKernel {
		t.Fatalf("mode = %v", p.Mode())
	}
}

func TestStateResidencyTracking(t *testing.T) {
	p := NewPCPU(ARM, 0)
	vm := ContextID{Owner: "vm0", VCPU: 1}
	p.LoadState(vm, GP, EL1Sys, VGIC)
	if p.Resident(GP) != vm {
		t.Fatalf("GP resident = %v", p.Resident(GP))
	}
	p.SaveState(vm, GP, EL1Sys, VGIC)
	if p.Resident(GP) != NoContext {
		t.Fatalf("GP should be vacant after save")
	}
}

func TestSaveWrongContextPanics(t *testing.T) {
	p := NewPCPU(ARM, 0)
	p.LoadState(ContextID{Owner: "vm0"}, EL1Sys)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic saving another context's state")
		}
	}()
	p.SaveState(ContextID{Owner: "host"}, EL1Sys)
}

func TestStage2RequiresHypMode(t *testing.T) {
	p := NewPCPU(ARM, 0)
	p.EnableStage2()
	p.EnableTraps()
	p.EnterGuestKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic toggling Stage-2 from EL1")
		}
	}()
	p.DisableStage2()
}

func TestRequireGuestRunnableCatchesMissingState(t *testing.T) {
	p := NewPCPU(ARM, 0)
	vm := ContextID{Owner: "vm0"}
	p.LoadState(vm, GP, EL1Sys) // VGIC missing
	p.EnableStage2()
	p.EnableTraps()
	p.EnterGuestKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: VGIC state not loaded")
		}
	}()
	p.RequireGuestRunnable(vm)
}

func TestRequireGuestRunnableHappyPath(t *testing.T) {
	p := NewPCPU(ARM, 0)
	vm := ContextID{Owner: "vm0"}
	p.LoadState(vm, GP, FP, EL1Sys, VGIC, Timer, EL2Config, EL2VM)
	p.EnableStage2()
	p.EnableTraps()
	p.EnterGuestKernel()
	p.RequireGuestRunnable(vm) // must not panic
}

func TestVHEHostStaysInEL2(t *testing.T) {
	p := NewPCPU(ARM, 0)
	p.SetVHE(true)
	p.EnterHostKernel()
	if p.Mode() != EL2 {
		t.Fatalf("VHE host kernel runs in %v, want EL2", p.Mode())
	}
}

func TestNonVHEHostRunsInEL1(t *testing.T) {
	p := NewPCPU(ARM, 0)
	p.EnterHostKernel()
	if p.Mode() != EL1 {
		t.Fatalf("split-mode host kernel runs in %v, want EL1", p.Mode())
	}
}

func TestVHEOnX86Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPCPU(X86, 0).SetVHE(true)
}

// armClasses lists the register classes that exist on ARM, in the order
// the paper's Table III presents them.
var armClasses = []RegClass{GP, FP, EL1Sys, VGIC, Timer, EL2Config, EL2VM}

func TestCostModelTableIII(t *testing.T) {
	// The canonical Table III values must sum to the paper's totals.
	cm := &CostModel{Arch: ARM, FreqMHz: 2400}
	cm.SetClass(GP, 152, 184)
	cm.SetClass(FP, 282, 310)
	cm.SetClass(EL1Sys, 230, 511)
	cm.SetClass(VGIC, 3250, 181)
	cm.SetClass(Timer, 104, 106)
	cm.SetClass(EL2Config, 92, 107)
	cm.SetClass(EL2VM, 92, 107)
	var save, restore Cycles
	for _, c := range armClasses {
		save += cm.Class[c].Save
		restore += cm.Class[c].Restore
	}
	if save != 4202 {
		t.Fatalf("save sum = %d, want 4202", save)
	}
	if restore != 1506 {
		t.Fatalf("restore sum = %d, want 1506", restore)
	}
}

func TestCyclesTimeConversionRoundTrip(t *testing.T) {
	cm := &CostModel{FreqMHz: 2400}
	if us := cm.CyclesToMicros(2400); us != 1.0 {
		t.Fatalf("2400 cycles = %v us, want 1", us)
	}
	if c := cm.MicrosToCycles(41.8); c != Cycles(41.8*2400) {
		t.Fatalf("41.8us = %v cycles", c)
	}
}

func TestArchAndRegClassStrings(t *testing.T) {
	if ARM.String() != "ARM" || X86.String() != "x86" {
		t.Fatal("arch strings wrong")
	}
	want := []string{"GP Regs", "FP Regs", "EL1 System Regs", "VGIC Regs",
		"Timer Regs", "EL2 Config Regs", "EL2 Virtual Memory Regs"}
	for i, c := range armClasses {
		if c.String() != want[i] {
			t.Errorf("class %d string = %q, want %q", i, c.String(), want[i])
		}
	}
	if VMCS.String() != "VMCS" {
		t.Error("VMCS string wrong")
	}
}
