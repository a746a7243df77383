package cpu

import "fmt"

// ContextID names an execution context whose register state can be resident
// on a physical CPU: a particular VCPU of a particular VM, or the host OS.
type ContextID struct {
	// Owner is "host", "xen", "dom0", "vm0", "vm1", ... — assigned by the
	// hypervisor layer.
	Owner string
	// VCPU is the virtual CPU index within the owner (0 for the host,
	// which has one kernel context per PCPU).
	VCPU int
}

func (c ContextID) String() string { return fmt.Sprintf("%s/vcpu%d", c.Owner, c.VCPU) }

// NoContext is the zero ContextID, meaning "no state loaded".
var NoContext = ContextID{}

// PCPU is one physical CPU of the simulated machine. It records which
// context's state is resident in each register class, the current mode, and
// the virtualization control state (Stage-2 translation, EL2 traps). The
// hypervisor's world-switch code is responsible for keeping this
// consistent; the methods panic on transitions that are architecturally
// impossible, which turns hypervisor bugs into immediate test failures.
type PCPU struct {
	arch Arch
	id   int

	mode Mode
	// resident[class] is the context whose state currently occupies that
	// register class in hardware.
	resident [NumRegClasses]ContextID
	// stage2 is true when Stage-2 translation (ARM) / EPT (x86) is active.
	stage2 bool
	// trapsEnabled is true when sensitive-instruction traps to the
	// hypervisor are armed (HCR_EL2 traps on ARM; always true in VMX
	// non-root operation on x86).
	trapsEnabled bool
	// vhe is true when the ARMv8.1 E2H bit is set: the host OS runs in
	// EL2 and EL1 register accesses from EL2 are transparently redirected
	// to EL2 registers.
	vhe bool
}

// NewPCPU returns PCPU number id of the given architecture, powered on in
// hypervisor mode with no guest state loaded (how firmware hands the CPU to
// a hypervisor-capable kernel).
func NewPCPU(arch Arch, id int) *PCPU {
	m := EL2
	if arch == X86 {
		m = X86RootKernel
	}
	return &PCPU{arch: arch, id: id, mode: m}
}

// Arch returns the CPU architecture.
func (p *PCPU) Arch() Arch { return p.arch }

// ID returns the physical CPU number.
func (p *PCPU) ID() int { return p.id }

// Mode returns the current execution mode.
func (p *PCPU) Mode() Mode { return p.mode }

// Stage2Enabled reports whether second-stage address translation is active.
func (p *PCPU) Stage2Enabled() bool { return p.stage2 }

// TrapsEnabled reports whether hypervisor traps are armed.
func (p *PCPU) TrapsEnabled() bool { return p.trapsEnabled }

// VHE reports whether the ARMv8.1 E2H bit is set.
func (p *PCPU) VHE() bool { return p.vhe }

// SetVHE sets the E2H bit. Only legal on ARM, at boot, from EL2.
func (p *PCPU) SetVHE(on bool) {
	if p.arch != ARM {
		panic("cpu: VHE is an ARMv8.1 feature; not available on " + p.arch.String())
	}
	if p.mode != EL2 {
		panic("cpu: E2H may only be written from EL2")
	}
	p.vhe = on
}

// Resident returns the context whose state occupies the given class.
func (p *PCPU) Resident(c RegClass) ContextID { return p.resident[c] }

// LoadState marks ctx's state as resident in the given classes. This is the
// bookkeeping half of a "restore"; the cycle cost is paid by the caller via
// the cost model.
func (p *PCPU) LoadState(ctx ContextID, classes ...RegClass) {
	for _, c := range classes {
		p.resident[c] = ctx
	}
}

// SaveState marks the given classes as saved to memory (no context
// resident). Panics if the state being saved does not belong to ctx —
// saving someone else's registers is a hypervisor bug.
func (p *PCPU) SaveState(ctx ContextID, classes ...RegClass) {
	for _, c := range classes {
		if p.resident[c] != ctx {
			panic(fmt.Sprintf("cpu%d: saving %v for %v but resident context is %v",
				p.id, c, ctx, p.resident[c]))
		}
		p.resident[c] = NoContext
	}
}

// EnableStage2 turns on second-stage translation. Must be called from
// hypervisor mode.
func (p *PCPU) EnableStage2() {
	p.mustHyp("enable Stage-2")
	p.stage2 = true
}

// DisableStage2 turns off second-stage translation (split-mode KVM does
// this before running the host, which needs full physical access from EL1).
func (p *PCPU) DisableStage2() {
	p.mustHyp("disable Stage-2")
	p.stage2 = false
}

// EnableTraps arms hypervisor traps for sensitive operations.
func (p *PCPU) EnableTraps() {
	p.mustHyp("enable traps")
	p.trapsEnabled = true
}

// DisableTraps disarms hypervisor traps.
func (p *PCPU) DisableTraps() {
	p.mustHyp("disable traps")
	p.trapsEnabled = false
}

func (p *PCPU) mustHyp(op string) {
	if !p.mode.Hyp() {
		panic(fmt.Sprintf("cpu%d: %s attempted from %v (requires hypervisor mode)", p.id, op, p.mode))
	}
}

// Trap transitions from a less-privileged mode into hypervisor mode, as the
// hardware does on a sensitive instruction, hypercall, or physical
// interrupt while traps are armed.
func (p *PCPU) Trap() {
	switch p.arch {
	case ARM:
		if p.mode == EL2 {
			panic(fmt.Sprintf("cpu%d: trap to EL2 while already in EL2", p.id))
		}
		p.mode = EL2
	case X86:
		switch p.mode {
		case X86NonRootKernel, X86NonRootUser:
			p.mode = X86RootKernel
		default:
			panic(fmt.Sprintf("cpu%d: VM exit from %v", p.id, p.mode))
		}
	}
}

// EnterGuestKernel returns from hypervisor mode into the guest kernel
// (ARM ERET to EL1; x86 VM entry to non-root ring 0).
func (p *PCPU) EnterGuestKernel() {
	p.mustHyp("guest entry")
	switch p.arch {
	case ARM:
		p.mode = EL1
	case X86:
		p.mode = X86NonRootKernel
	}
}

// EnterHostKernel returns from hypervisor mode into the host kernel. On ARM
// without VHE this is an ERET to EL1 (the split-mode "double trap" return
// leg); with VHE the host already runs in EL2 so the mode does not change.
// On x86 the host kernel is root-mode ring 0, same as the hypervisor.
func (p *PCPU) EnterHostKernel() {
	p.mustHyp("host entry")
	switch p.arch {
	case ARM:
		if !p.vhe {
			p.mode = EL1
		}
	case X86:
		p.mode = X86RootKernel
	}
}

// HostKernelMode returns the mode the host kernel runs in on this CPU.
func (p *PCPU) HostKernelMode() Mode {
	if p.arch == X86 {
		return X86RootKernel
	}
	if p.vhe {
		return EL2
	}
	return EL1
}

// RequireGuestRunnable panics unless the CPU state is consistent with
// executing guest ctx: guest kernel mode, Stage-2 on, traps armed, and the
// guest's state resident in every class the architecture swaps.
func (p *PCPU) RequireGuestRunnable(ctx ContextID) {
	if p.arch == ARM {
		if p.mode != EL1 && p.mode != EL0 {
			panic(fmt.Sprintf("cpu%d: guest %v 'running' in %v", p.id, ctx, p.mode))
		}
		if !p.stage2 {
			panic(fmt.Sprintf("cpu%d: guest %v running without Stage-2 translation", p.id, ctx))
		}
		if !p.trapsEnabled {
			panic(fmt.Sprintf("cpu%d: guest %v running with traps disabled", p.id, ctx))
		}
		for _, c := range []RegClass{GP, EL1Sys, VGIC} {
			if p.resident[c] != ctx {
				panic(fmt.Sprintf("cpu%d: guest %v running but %v belongs to %v",
					p.id, ctx, c, p.resident[c]))
			}
		}
		return
	}
	if p.mode != X86NonRootKernel && p.mode != X86NonRootUser {
		panic(fmt.Sprintf("cpu%d: guest %v 'running' in %v", p.id, ctx, p.mode))
	}
	if p.resident[VMCS] != ctx {
		panic(fmt.Sprintf("cpu%d: guest %v running but VMCS belongs to %v",
			p.id, ctx, p.resident[VMCS]))
	}
}
