package cpu

import (
	"fmt"
	"math"
)

// CostModel is the table of *hardware* primitive costs for one simulated
// server platform, in CPU cycles. Software costs (hypervisor handler and
// emulation paths) live with the hypervisor implementations; this struct
// covers only what silicon does.
//
// The ARM values are calibrated against the paper's Table III (the KVM ARM
// hypercall breakdown measured on the HP Moonshot m400's Applied Micro
// Atlas SoC) and the hardware-attributable rows of Table II (for example,
// Virtual IRQ Completion = 71 cycles is purely the GIC virtual CPU
// interface). The x86 values are calibrated against Table II's x86 columns
// (Dell r320, Xeon E5-2450).
type CostModel struct {
	Arch Arch

	// FreqMHz converts cycles to wall time (2400 for the ARM server,
	// 2100 for the x86 server).
	FreqMHz int

	// --- ARM exception-level transitions -------------------------------

	// TrapToEL2 is the hardware exception entry from EL1/EL0 into EL2
	// (sensitive instruction, HVC, or physical IRQ while in a VM).
	TrapToEL2 Cycles
	// ERET is the exception return from EL2 to EL1/EL0.
	ERET Cycles
	// Class gives the memory save/restore cost of each ARM register
	// class; Table III is the source of these values.
	Class [NumRegClasses]SaveRestore
	// Stage2Toggle enables or disables Stage-2 translation from EL2
	// (VTCR/VTTBR + HCR_EL2.VM write, one direction).
	Stage2Toggle Cycles
	// TrapToggle arms or disarms the HCR_EL2 trap bits (one direction).
	TrapToggle Cycles
	// VirqCompleteHW is a guest acknowledging and completing a virtual
	// interrupt through the GIC virtual CPU interface, with no trap.
	// Table II: 71 cycles on both ARM hypervisors.
	VirqCompleteHW Cycles

	// --- x86 VMX transitions --------------------------------------------

	// VMExitHW is the hardware VM exit: non-root to root, including the
	// automatic VMCS guest-state save and host-state load.
	VMExitHW Cycles
	// VMEntryHW is the hardware VM entry (VMRESUME), including VMCS
	// guest-state load and checks.
	VMEntryHW Cycles
	// VMCSSwitch is the cost of vmclear/vmptrld when changing which
	// VMCS is current (VM-to-VM switch on the same core).
	VMCSSwitch Cycles

	// --- interconnect ----------------------------------------------------

	// IPISend is the sender-side cost of dispatching a physical IPI
	// (ICC_SGI1R write on ARM, ICR write on x86).
	IPISend Cycles
	// IPIWire is the propagation delay through the interrupt
	// distribution fabric to the target CPU.
	IPIWire Cycles
	// IRQEntry is the hardware interrupt entry on the target CPU
	// (vector fetch, pipeline flush), before any software runs.
	IRQEntry Cycles

	// --- memory system ----------------------------------------------------

	// CopyPerByte is the cost of moving one byte of payload through a
	// software copy (memcpy between kernel buffers).
	CopyPerByte float64
	// TLBIBroadcast is a broadcast TLB invalidate completing on all
	// CPUs (ARM has hardware broadcast; x86 requires IPI shootdown,
	// modelled in the hypervisor layer).
	TLBIBroadcast Cycles
	// PageTableWalkPerLevel is one level of a page-table walk on a TLB
	// miss.
	PageTableWalkPerLevel Cycles
	// Stage2FaultHW is the hardware cost of delivering a Stage-2 page
	// fault to the hypervisor (on top of TrapToEL2/VMExitHW).
	Stage2FaultHW Cycles
}

// Validate checks the model is usable: a positive frequency (a zero
// FreqMHz would silently yield Inf/NaN microsecond conversions), no
// negative primitive costs, and a finite, non-negative CopyPerByte (a NaN
// or +Inf rate would make every copy cost meaningless). hw.New panics on the first violation, so a
// malformed model fails at machine construction instead of corrupting
// results.
func (cm *CostModel) Validate() error {
	if cm.FreqMHz <= 0 {
		return fmt.Errorf("cpu: cost model FreqMHz = %d, must be positive", cm.FreqMHz)
	}
	prims := []struct {
		name string
		c    Cycles
	}{
		{"TrapToEL2", cm.TrapToEL2}, {"ERET", cm.ERET},
		{"Stage2Toggle", cm.Stage2Toggle}, {"TrapToggle", cm.TrapToggle},
		{"VirqCompleteHW", cm.VirqCompleteHW},
		{"VMExitHW", cm.VMExitHW}, {"VMEntryHW", cm.VMEntryHW}, {"VMCSSwitch", cm.VMCSSwitch},
		{"IPISend", cm.IPISend}, {"IPIWire", cm.IPIWire}, {"IRQEntry", cm.IRQEntry},
		{"TLBIBroadcast", cm.TLBIBroadcast},
		{"PageTableWalkPerLevel", cm.PageTableWalkPerLevel},
		{"Stage2FaultHW", cm.Stage2FaultHW},
	}
	for _, p := range prims {
		if p.c < 0 {
			return fmt.Errorf("cpu: cost model %s = %d, must not be negative", p.name, p.c)
		}
	}
	for cls := RegClass(0); cls < NumRegClasses; cls++ {
		sr := cm.Class[cls]
		if sr.Save < 0 || sr.Restore < 0 {
			return fmt.Errorf("cpu: cost model class %v save/restore = %d/%d, must not be negative",
				cls, sr.Save, sr.Restore)
		}
	}
	if cm.CopyPerByte < 0 || math.IsNaN(cm.CopyPerByte) || math.IsInf(cm.CopyPerByte, 0) {
		return fmt.Errorf("cpu: cost model CopyPerByte = %g, must be finite and not negative", cm.CopyPerByte)
	}
	return nil
}

// CyclesToMicros converts a cycle count to microseconds on this platform.
func (cm *CostModel) CyclesToMicros(c Cycles) float64 {
	return float64(c) / float64(cm.FreqMHz)
}

// MicrosToCycles converts microseconds to cycles on this platform.
func (cm *CostModel) MicrosToCycles(us float64) Cycles {
	return Cycles(us * float64(cm.FreqMHz))
}

// SaveAll returns the summed save cost of the given classes.
func (cm *CostModel) SaveAll(classes ...RegClass) Cycles {
	var total Cycles
	for _, c := range classes {
		total += cm.Class[c].Save
	}
	return total
}

// RestoreAll returns the summed restore cost of the given classes.
func (cm *CostModel) RestoreAll(classes ...RegClass) Cycles {
	var total Cycles
	for _, c := range classes {
		total += cm.Class[c].Restore
	}
	return total
}

// SetClass sets the save/restore cost of one register class.
func (cm *CostModel) SetClass(c RegClass, save, restore Cycles) {
	cm.Class[c] = SaveRestore{Save: save, Restore: restore}
}

// ClassCost returns the save/restore cost pair for one register class.
func (cm *CostModel) ClassCost(c RegClass) SaveRestore { return cm.Class[c] }
