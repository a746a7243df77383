// Package platform defines the two simulated servers of the paper's
// testbed and the calibrated cost tables for every hypervisor
// configuration on them:
//
//   - ARM: HP Moonshot m400 — 64-bit ARMv8-A 2.4 GHz Applied Micro Atlas,
//     8 physical cores (§III).
//   - x86: Dell PowerEdge r320 — 64-bit Xeon 2.1 GHz E5-2450, 8 physical
//     cores, hyperthreading disabled (§III).
//
// Calibration sources, in order of authority:
//
//  1. Table III fixes the ARM per-register-class save/restore costs
//     exactly.
//  2. Table II fixes the composed path totals; the remaining software
//     constants are solved from the path algebra (each constant's comment
//     shows the equation it participates in).
//  3. Legs the paper measures but does not decompose (vhost wakeups, Dom0
//     worker wakes) are carried by explicitly named residual constants.
//
// This is the only package that contains numbers; everything else is
// mechanism.
package platform

import (
	"armvirt/internal/cpu"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/hyp/xen"
)

// ARMFreqMHz and X86FreqMHz are the testbed clock rates used to convert
// cycles to wall time.
const (
	ARMFreqMHz = 2400
	X86FreqMHz = 2100
)

// NCPU is the physical core count of both servers.
const NCPU = 8

// ARMCostModel returns the hardware cost table for the ARM server.
func ARMCostModel() *cpu.CostModel {
	cm := &cpu.CostModel{
		Arch:    cpu.ARM,
		FreqMHz: ARMFreqMHz,

		TrapToEL2: 27, // hardware exception entry to EL2
		ERET:      27, // exception return

		Stage2Toggle: 25, // VTTBR/HCR_EL2.VM write
		TrapToggle:   18, // HCR_EL2 trap bits

		// Table II row 4: guest ack+complete through the GIC virtual
		// CPU interface, no trap.
		VirqCompleteHW: 71,

		IPISend:  50,  // ICC_SGI1R write
		IPIWire:  150, // distributor fabric propagation
		IRQEntry: 40,  // pipeline flush + vector fetch

		CopyPerByte:           0.20, // ~12 bytes/cycle memcpy at 2.4GHz
		TLBIBroadcast:         1200, // ARM hardware broadcast invalidate
		PageTableWalkPerLevel: 30,
		Stage2FaultHW:         90,
	}
	// Table III, exactly as published.
	cm.SetClass(cpu.GP, 152, 184)
	cm.SetClass(cpu.FP, 282, 310)
	cm.SetClass(cpu.EL1Sys, 230, 511)
	cm.SetClass(cpu.VGIC, 3250, 181)
	cm.SetClass(cpu.Timer, 104, 106)
	cm.SetClass(cpu.EL2Config, 92, 107)
	cm.SetClass(cpu.EL2VM, 92, 107)
	return cm
}

// X86CostModel returns the hardware cost table for the x86 server.
func X86CostModel() *cpu.CostModel {
	return &cpu.CostModel{
		Arch:    cpu.X86,
		FreqMHz: X86FreqMHz,

		// Hypercall (Table II): Xen x86 = VMExitHW + 0 + VMEntryHW =
		// 1228; KVM x86 adds its 72-cycle handler for 1,300. The
		// ~40/60 exit/entry split follows §IV's observation that the
		// VM-to-hypervisor leg is about 40% of the KVM x86 hypercall.
		VMExitHW:   491,
		VMEntryHW:  737,
		VMCSSwitch: 400, // vmclear + vmptrld

		// Used only when the vAPIC ablation is enabled (the paper's
		// Xeon E5-2450 predates it).
		VirqCompleteHW: 200,

		IPISend:  50,
		IPIWire:  150,
		IRQEntry: 40,

		CopyPerByte:           0.18,
		TLBIBroadcast:         4000, // x86: IPI-based shootdown
		PageTableWalkPerLevel: 25,
		Stage2FaultHW:         100,
	}
}

// ARMMachine builds the simulated HP m400.
func ARMMachine() *hw.Machine {
	return hw.New(hw.Config{Arch: cpu.ARM, NCPU: NCPU, Cost: ARMCostModel()})
}

// ARMMachinePartitioned builds the simulated HP m400 with each physical
// CPU on its own engine partition — a conservative windowed simulation
// whose lookahead is the GIC wire latency. Results are byte-identical to
// ARMMachine()'s; only host wall time changes.
func ARMMachinePartitioned() *hw.Machine {
	return hw.New(hw.Config{Arch: cpu.ARM, NCPU: NCPU, Cost: ARMCostModel(), PartitionPerCPU: true})
}

// ARMMachineWithCost builds the ARM server with a modified hardware cost
// model (for ablations).
func ARMMachineWithCost(cm *cpu.CostModel) *hw.Machine {
	return hw.New(hw.Config{Arch: cpu.ARM, NCPU: NCPU, Cost: cm})
}

// X86Machine builds the simulated Dell r320. vapic enables the
// hardware-EOI ablation (off for the paper's baseline).
func X86Machine(vapic bool) *hw.Machine {
	return hw.New(hw.Config{Arch: cpu.X86, NCPU: NCPU, Cost: X86CostModel(), VAPIC: vapic})
}

// KVMARMCosts is the calibrated KVM ARM software cost table.
//
// Path algebra (ARM hardware constants in parentheses):
//
//	exit  = trap(27) + TableIII save(4202) + toggles(43) + HostCtxRestore + eret(27)
//	enter = hvc(27) + HostCtxSave + toggles(43) + TableIII restore(1506) + eret(27)
//	Hypercall = exit + HostHandler + enter            = 6,500  (Table II)
//	GICTrap   = MMIODecode + exit + GICDistEmulate + enter = 7,370
//	VirtIPI   = exit + SGIEmulate + IPISend | wire | exit + PhysIRQAck
//	            + VirqInject + enter + GuestIRQEntry  = 11,557
//	VMSwitch  = exit + HostSchedSwitch + enter        = 10,387
//	IOOut     = exit + Ioeventfd + IPISend | wire + BackendWake = 6,024
//	IOIn      = Irqfd + NotifyResidual + IPISend | wire | VCPUWake
//	            + PhysIRQAck + VirqInject + enter + GuestIRQEntry = 13,872
func KVMARMCosts() kvm.Costs {
	return kvm.Costs{
		HostHandler:     118,
		MMIODecode:      84,
		HostCtxSave:     210,
		HostCtxRestore:  270,
		GICDistEmulate:  904,
		SGIEmulate:      150,
		PhysIRQAck:      100,
		VirqInject:      96,
		GuestIRQEntry:   60,
		HostSchedSwitch: 4005,
		BlockVCPU:       500,
		VCPUWake:        4905, // host IRQ entry + scheduler thread switch
		Ioeventfd:       380,
		KickNeedsIPI:    true,
		BackendWake:     875,
		Irqfd:           1500,
		NotifyResidual:  5198, // vhost ring/eventfd path, undecomposed in Table II
		FaultWork:       2500,
	}
}

// KVMX86Costs is the calibrated KVM x86 software cost table.
//
//	Hypercall = exit(491) + HostHandler + enter(737)       = 1,300
//	GICTrap   = exit + APICAccess + enter                  = 2,384
//	VirtIPI   = exit + SGIEmulate + IPISend | wire | exit
//	            + PhysIRQAck + VirqInject + enter + entry  = 5,230
//	VIRQDone  = exit + EOIEmulate + enter                  = 1,556
//	VMSwitch  = exit + HostSchedSwitch + VMCSSwitch + enter = 4,812
//	IOOut     = exit + Ioeventfd (hot vhost worker, no IPI) = 560
//	IOIn      = Irqfd + NotifyResidual + IPISend | wire | VCPUWake
//	            + PhysIRQAck + VirqInject + enter + entry  = 18,923
func KVMX86Costs() kvm.Costs {
	return kvm.Costs{
		HostHandler:     72,
		APICAccess:      1156,
		SGIEmulate:      1300,
		PhysIRQAck:      950,
		VirqInject:      1001,
		GuestIRQEntry:   60,
		EOIEmulate:      328,
		HostSchedSwitch: 3184,
		BlockVCPU:       500,
		VCPUWake:        4000,
		Ioeventfd:       69,
		KickNeedsIPI:    false,
		Irqfd:           2000,
		NotifyResidual:  9975, // x86 I/O In is residual-dominated; Table II gives no decomposition
		FaultWork:       2200,
	}
}

// XenARMCosts is the calibrated Xen ARM software cost table.
//
//	lightTrap = trap(27) + GPSaveFast; lightReturn = GPRestoreFast + eret(27)
//	Hypercall = lightTrap + Handler + lightReturn          = 376
//	GICTrap   = lightTrap + GICDistEmulate + lightReturn   = 1,356
//	VirtIPI   = lightTrap + SGIEmulate + IPISend | wire | lightTrap
//	            + PhysIRQAck + VirqInject + lightReturn + entry = 5,978
//	VMSwitch  = trap + save(4202) + SchedSwitch + restore(1506) + eret = 8,799
//	IOOut     = lightTrap + EvtchnSend + IPISend | wire | PhysIRQAck
//	            + IdleWakeSched + VirqInject + restore(1506) + eret + entry
//	            + UpcallDispatch + Dom0WorkerWake          = 16,491
//	IOIn      = NotifyRingWork + lightTrap + EvtchnSend + IPISend | wire
//	            | PhysIRQAck + IdleWakeSched + VirqInject + restore + eret
//	            + entry                                    = 15,650
//
// The large SGIEmulate/PhysIRQAck/VirqInject values are forced by Table II
// itself: Xen's hypercall is 376 cycles yet its virtual IPI is 5,978, so
// by elimination ~5,300 cycles live in Xen's EL2 vgic emulation and
// physical interrupt handling.
func XenARMCosts() xen.Costs {
	return xen.Costs{
		GPSaveFast:     130,
		GPRestoreFast:  130,
		Handler:        62,
		GICDistEmulate: 1042,
		SGIEmulate:     2350,
		PhysIRQAck:     1650,
		VirqInject:     1247,
		GuestIRQEntry:  60,
		SchedSwitch:    3037,
		SchedToIdle:    400,
		IdleWakeSched:  3037,
		EvtchnSend:     870,
		UpcallDispatch: 2900,
		Dom0WorkerWake: 4837,
		NotifyRingWork: 6896,
		FaultWork:      1400,
	}
}

// XenX86Costs is the calibrated Xen x86 software cost table.
//
//	Hypercall = exit(491) + 0 + enter(737)                 = 1,228
//	GICTrap   = exit + APICAccess + enter                  = 1,734
//	VirtIPI   = exit + SGIEmulate + IPISend | wire | exit
//	            + PhysIRQAck + VirqInject + enter + entry  = 5,562
//	VIRQDone  = exit + EOIEmulate + enter                  = 1,464
//	VMSwitch  = exit + SchedSwitch + VMCSSwitch + enter    = 10,534
//	IOOut     = exit + EvtchnSend + IPISend | wire | PhysIRQAck
//	            + IdleWakeSched + VirqInject + enter + entry
//	            + UpcallDispatch + Dom0WorkerWake          = 11,262
//	IOIn      = NotifyRingWork + exit + EvtchnSend + IPISend | wire
//	            | PhysIRQAck + IdleWakeSched + VirqInject + enter + entry = 10,050
func XenX86Costs() xen.Costs {
	return xen.Costs{
		Handler:        0,
		APICAccess:     506,
		SGIEmulate:     1450,
		PhysIRQAck:     1100,
		VirqInject:     1033,
		GuestIRQEntry:  60,
		EOIEmulate:     236,
		SchedSwitch:    8906,
		SchedToIdle:    400,
		IdleWakeSched:  3500,
		EvtchnSend:     600,
		UpcallDispatch: 1800,
		Dom0WorkerWake: 1741,
		NotifyRingWork: 2329,
		FaultWork:      1400,
	}
}

// Platform bundles one hypervisor configuration ready to run experiments.
type Platform struct {
	// Label is the Table II column name ("KVM ARM", "Xen x86", ...).
	Label string
	// Machine is the simulated server (freshly built per Platform).
	Machine *hw.Machine
	// KVM or Xen is the hypervisor instance (exactly one non-nil).
	KVM *kvm.KVM
	Xen *xen.Xen
}

// Hyp returns the active hypervisor as the common interface.
func (pl *Platform) Hyp() hyp.Hypervisor {
	if pl.KVM != nil {
		return pl.KVM
	}
	return pl.Xen
}

// NewKVMARM builds a fresh KVM ARM platform (split-mode).
func NewKVMARM() *Platform {
	m := ARMMachine()
	return &Platform{Label: "KVM ARM", Machine: m, KVM: kvm.New(m, KVMARMCosts(), false)}
}

// NewKVMARMVHE builds KVM ARM with the ARMv8.1 VHE configuration (§VI).
func NewKVMARMVHE() *Platform {
	m := ARMMachine()
	return &Platform{Label: "KVM ARM (VHE)", Machine: m, KVM: kvm.New(m, KVMARMCosts(), true)}
}

// NewKVMX86 builds the KVM x86 baseline.
func NewKVMX86() *Platform {
	m := X86Machine(false)
	return &Platform{Label: "KVM x86", Machine: m, KVM: kvm.New(m, KVMX86Costs(), false)}
}

// NewXenARM builds the Xen ARM platform.
func NewXenARM() *Platform {
	m := ARMMachine()
	return &Platform{Label: "Xen ARM", Machine: m, Xen: xen.New(m, XenARMCosts())}
}

// NewXenX86 builds the Xen x86 baseline.
func NewXenX86() *Platform {
	m := X86Machine(false)
	return &Platform{Label: "Xen x86", Machine: m, Xen: xen.New(m, XenX86Costs())}
}

// NewKVMX86VAPIC builds KVM x86 with hardware APIC virtualization — the
// §IV forward reference ("newer x86 hardware with vAPIC support should
// perform more comparably to ARM" on interrupt completion).
func NewKVMX86VAPIC() *Platform {
	m := X86Machine(true)
	return &Platform{Label: "KVM x86 (vAPIC)", Machine: m, KVM: kvm.New(m, KVMX86Costs(), false)}
}
