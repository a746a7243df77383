// Package cpu models the CPU-level virtualization mechanisms of the two
// architectures studied in the paper: ARMv8 (exception levels EL0/EL1/EL2,
// optionally with the ARMv8.1 Virtualization Host Extensions) and x86
// (privilege rings crossed with VMX root/non-root mode and a
// hardware-managed VMCS).
//
// The model tracks, per physical CPU, which execution context's register
// state is resident in each architectural register class, whether Stage-2
// translation and hypervisor traps are enabled, and which mode the CPU is
// in. World-switch code in the hypervisor packages mutates this state and
// pays cycle costs from a CostModel; invariant checks catch impossible
// states (for example, running a VM while the host's EL1 system registers
// are still loaded).
package cpu

import "fmt"

// Arch identifies the instruction set architecture of a simulated machine.
type Arch int

const (
	// ARM is ARMv8-A with the virtualization extensions (EL2).
	ARM Arch = iota
	// X86 is Intel-style VMX with root/non-root modes and a VMCS.
	X86
)

func (a Arch) String() string {
	switch a {
	case ARM:
		return "ARM"
	case X86:
		return "x86"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Mode is the CPU execution mode. ARM modes are exception levels; x86 modes
// combine ring and VMX root/non-root.
type Mode int

const (
	// EL0 is ARM user mode.
	EL0 Mode = iota
	// EL1 is ARM kernel mode (guest kernel, or host kernel for split-mode
	// Type 2 hypervisors).
	EL1
	// EL2 is the ARM hypervisor mode.
	EL2
	// X86RootKernel is x86 kernel mode in VMX root (hypervisor/host).
	X86RootKernel
	// X86RootUser is x86 user mode in VMX root.
	X86RootUser
	// X86NonRootKernel is x86 kernel mode in VMX non-root (guest kernel).
	X86NonRootKernel
	// X86NonRootUser is x86 user mode in VMX non-root (guest user).
	X86NonRootUser
)

func (m Mode) String() string {
	switch m {
	case EL0:
		return "EL0"
	case EL1:
		return "EL1"
	case EL2:
		return "EL2"
	case X86RootKernel:
		return "root/kernel"
	case X86RootUser:
		return "root/user"
	case X86NonRootKernel:
		return "non-root/kernel"
	case X86NonRootUser:
		return "non-root/user"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Hyp reports whether the mode is the architecture's hypervisor-privileged
// mode (EL2 on ARM, VMX root on x86).
func (m Mode) Hyp() bool {
	return m == EL2 || m == X86RootKernel || m == X86RootUser
}

// RegClass is an architectural register class whose save/restore cost the
// paper measures individually (Table III). The classes are ARM-centric; on
// x86 the entire guest state is a single hardware-managed VMCS image.
type RegClass int

const (
	// GP is the general-purpose register file (x0-x30 + SP/PC/PSTATE).
	GP RegClass = iota
	// FP is the SIMD/floating point register file (v0-v31 + control).
	FP
	// EL1Sys is the EL1 system register state (TTBR0/1_EL1, SCTLR_EL1,
	// TPIDR*, VBAR_EL1, ...). Split-mode KVM must swap this between host
	// and guest because both run in EL1.
	EL1Sys
	// VGIC is the GIC virtual CPU interface state (GICH_* / list
	// registers). Reading it out of the hardware is the single most
	// expensive step of the split-mode world switch (3,250 cycles).
	VGIC
	// Timer is the generic timer state (CNTV_CTL, CNTV_CVAL, CNTVOFF).
	Timer
	// EL2Config is the per-VM EL2 configuration (HCR_EL2, VTCR_EL2, ...).
	EL2Config
	// EL2VM is the EL2 virtual-memory configuration (VTTBR_EL2 etc.).
	EL2VM
	// VMCS is the x86 VM control structure: the full guest/host state
	// image that hardware transfers on VM entry/exit.
	VMCS
	// NumRegClasses is the class count, for tables indexed by RegClass.
	NumRegClasses
)

func (c RegClass) String() string {
	switch c {
	case GP:
		return "GP Regs"
	case FP:
		return "FP Regs"
	case EL1Sys:
		return "EL1 System Regs"
	case VGIC:
		return "VGIC Regs"
	case Timer:
		return "Timer Regs"
	case EL2Config:
		return "EL2 Config Regs"
	case EL2VM:
		return "EL2 Virtual Memory Regs"
	case VMCS:
		return "VMCS"
	}
	return fmt.Sprintf("RegClass(%d)", int(c))
}

// ARMClasses lists the register classes that exist on ARM, in the order the
// paper's Table III presents them.
func ARMClasses() []RegClass {
	return []RegClass{GP, FP, EL1Sys, VGIC, Timer, EL2Config, EL2VM}
}

// Cycles is a cycle count used for costs (distinct from sim.Time to keep
// cost tables free of simulator imports; hypervisors convert).
type Cycles int64

// SaveRestore is the cost pair for moving one register class between
// hardware and memory.
type SaveRestore struct {
	Save    Cycles
	Restore Cycles
}
