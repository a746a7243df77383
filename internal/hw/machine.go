// Package hw assembles a simulated server: an event engine, physical CPUs
// (each a serialized execution resource with a physical-interrupt inbox),
// an interrupt controller (GIC on ARM, per-CPU LAPICs on x86), and the
// Stage-2 TLB. Hypervisor packages build on top of this.
package hw

import (
	"fmt"

	"armvirt/internal/cpu"
	"armvirt/internal/gic"
	"armvirt/internal/mem"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// CPU is one physical CPU of the machine: architectural state, an
// occupancy resource serializing execution contexts, the inbox physical
// interrupts are delivered to, and the per-CPU interrupt hardware.
type CPU struct {
	P   *cpu.PCPU
	Res *sim.Resource
	// IRQ receives physical interrupt deliveries for this CPU. Whoever
	// currently "executes" on the CPU (a VCPU fiber, a host thread
	// fiber) consumes them.
	IRQ *sim.Queue[gic.Delivery]
	// VIface is the GIC virtual CPU interface (ARM only). Its contents
	// belong to whichever VCPU's VGIC state is currently loaded.
	VIface *gic.VirtualIface
	// LAPIC is the local APIC (x86 only).
	LAPIC *gic.LAPIC
}

// Config describes a machine to build.
type Config struct {
	Arch cpu.Arch
	// NCPU is the physical core count (8 for both of the paper's
	// servers).
	NCPU int
	Cost *cpu.CostModel
	// NumLRs is the GIC list-register count (ARM; default 4).
	NumLRs int
	// VAPIC enables hardware APIC virtualization (x86 ablation; the
	// paper's Xeon does not have it).
	VAPIC bool
	// TLBCapacity sizes the Stage-2 TLB model (default 512).
	TLBCapacity int
	// PartitionPerCPU places each physical CPU on its own engine
	// partition (partition 0 keeps shared devices), turning the machine
	// into a conservative windowed simulation. The engine's lookahead is
	// the cost model's IPI wire latency — the minimum delay of any
	// cross-CPU interaction — so results are byte-identical to the
	// single-partition machine.
	PartitionPerCPU bool
}

// Machine is a simulated server.
type Machine struct {
	Eng  *sim.Engine
	Arch cpu.Arch
	Cost *cpu.CostModel
	CPUs []*CPU
	// Dist is the GIC distributor (ARM only).
	Dist *gic.Distributor
	// TLB is the shared Stage-2 TLB model (VMID-tagged).
	TLB *mem.TLB
	// VAPIC records whether APIC virtualization is on (x86).
	VAPIC bool
	// Rec is the machine's observability recorder; nil (the default)
	// records nothing. Attach one with SetRecorder before running
	// experiments.
	Rec *obs.Recorder
	// Tel is the machine's telemetry sampler; nil (the default) samples
	// nothing. Attach one with SetSampler — or build the machine under
	// telemetry.Collect, which wires a sampler automatically.
	Tel *telemetry.Sampler
	// cpuPart is the engine layout when New placed each CPU on its own
	// partition (Config.PartitionPerCPU): pcpu i lives on partition
	// cpuPart[i] = i+1, partition 0 keeps the shared devices. Nil on an
	// unpartitioned machine.
	cpuPart []int
}

// New builds a machine per cfg.
func New(cfg Config) *Machine {
	if cfg.NCPU <= 0 {
		panic("hw: machine needs at least one CPU")
	}
	if cfg.Cost == nil {
		panic("hw: machine needs a cost model")
	}
	if cfg.Cost.Arch != cfg.Arch {
		panic(fmt.Sprintf("hw: cost model is for %v, machine is %v", cfg.Cost.Arch, cfg.Arch))
	}
	if err := cfg.Cost.Validate(); err != nil {
		panic(fmt.Sprintf("hw: %v", err))
	}
	nLR := cfg.NumLRs
	if nLR == 0 {
		nLR = gic.DefaultNumLRs
	}
	tlbCap := cfg.TLBCapacity
	if tlbCap == 0 {
		tlbCap = 512
	}
	eng := sim.NewEngine()
	m := &Machine{
		Eng:   eng,
		Arch:  cfg.Arch,
		Cost:  cfg.Cost,
		TLB:   mem.NewTLB(tlbCap),
		VAPIC: cfg.VAPIC,
	}
	if cfg.PartitionPerCPU {
		eng.SetLookahead(sim.Time(cfg.Cost.IPIWire))
		for i := 0; i < cfg.NCPU; i++ {
			eng.AddPartition(fmt.Sprintf("pcpu%d", i))
			m.cpuPart = append(m.cpuPart, i+1)
		}
	}
	for i := 0; i < cfg.NCPU; i++ {
		c := &CPU{
			P:   cpu.NewPCPU(cfg.Arch, i),
			Res: sim.NewResource(eng, fmt.Sprintf("pcpu%d", i)),
			IRQ: sim.NewQueue[gic.Delivery](eng, fmt.Sprintf("irq%d", i)),
		}
		if cfg.Arch == cpu.ARM {
			c.VIface = gic.NewVirtualIface(nLR, nil)
		} else {
			c.LAPIC = gic.NewLAPIC(i, cfg.VAPIC)
		}
		m.CPUs = append(m.CPUs, c)
	}
	if cfg.Arch == cpu.ARM {
		m.Dist = gic.NewDistributor(eng, cfg.NCPU, sim.Time(cfg.Cost.IPIWire), func(d gic.Delivery) {
			m.CPUs[d.CPU].IRQ.Send(d)
		})
		if m.Partitioned() {
			m.Dist.PartOf = m.PartOf
		}
	}
	if col, _ := eng.Telemetry().(*telemetry.Collector); col != nil {
		m.SetSampler(col.NewSampler(cfg.NCPU, cfg.Cost.FreqMHz))
	}
	return m
}

// Partitioned reports whether each CPU lives on its own engine partition
// (Config.PartitionPerCPU).
func (m *Machine) Partitioned() bool { return m.cpuPart != nil }

// PartOf returns the engine partition physical CPU cpu lives on: pcpu i is
// partition i+1 on a partitioned machine (partition 0 holds shared
// devices), and everything is partition 0 otherwise. Fibers modelling work
// on a CPU must be spawned with Eng.GoOn on this partition.
func (m *Machine) PartOf(cpu int) sim.PartID {
	if !m.Partitioned() {
		return 0
	}
	return sim.PartID(m.cpuPart[cpu])
}

// NCPU returns the physical core count.
func (m *Machine) NCPU() int { return len(m.CPUs) }

// SetRecorder attaches (or, with nil, detaches) an observability recorder.
// The recorder is wired into every layer the machine owns: the GIC
// distributor's physical-interrupt deliveries and the engine's process
// lifecycle tap. Hypervisor and I/O layers reach the recorder through
// m.Rec.
func (m *Machine) SetRecorder(r *obs.Recorder) {
	m.Rec = r
	if m.Dist != nil {
		m.Dist.Rec = r
	}
	if r == nil {
		m.Eng.SetProcTap(nil)
		return
	}
	m.Eng.SetProcTap(func(t sim.Time, what, name string) {
		r.Emit(t, obs.ProcEvent, -1, "", -1, what+" "+name, 0)
	})
}

// SetSampler attaches (or, with nil, detaches) a telemetry sampler and
// wires it into the GIC distributor.
func (m *Machine) SetSampler(s *telemetry.Sampler) {
	m.Tel = s
	if m.Dist != nil {
		m.Dist.Tel = s
	}
}

// SendIPI dispatches a physical IPI from the current context to a target
// CPU: the sender pays the dispatch cost; delivery lands in the target's
// IRQ inbox after the wire latency. On x86 there is no distributor; the
// LAPIC ICR path is modelled with the same send/wire costs.
func (m *Machine) SendIPI(p *sim.Proc, to int, irq gic.IRQ) {
	m.Rec.ChargeCycles(p, "IPI send", int64(m.Cost.IPISend))
	p.Sleep(sim.Time(m.Cost.IPISend))
	if m.Arch == cpu.ARM {
		m.Dist.SendSGI(p, to, irq)
		return
	}
	p.SendTo(m.PartOf(to), sim.Time(m.Cost.IPIWire), func() {
		now := m.Eng.PartNow(m.PartOf(to))
		m.Rec.Emit(now, obs.PhysIRQ, to, "", -1, "IPI", int64(irq))
		m.Tel.Count(now, to, telemetry.CtrGICDelivery, 1)
		m.CPUs[to].IRQ.Send(gic.Delivery{CPU: to, IRQ: irq, At: now})
	})
}

// RaiseDeviceIRQ injects a device (SPI) interrupt. On ARM it goes through
// the distributor's routing; on x86 it is delivered directly to the target
// (modelling an MSI).
func (m *Machine) RaiseDeviceIRQ(irq gic.IRQ, target int) {
	if m.Arch == cpu.ARM {
		m.Dist.Enable(irq)
		m.Dist.SetTarget(irq, target)
		m.Dist.RaiseSPI(irq)
		return
	}
	m.Eng.SendTo(m.PartOf(target), sim.Time(m.Cost.IPIWire), func() {
		now := m.Eng.PartNow(m.PartOf(target))
		m.Rec.Emit(now, obs.PhysIRQ, target, "", -1, "MSI", int64(irq))
		m.Tel.Count(now, target, telemetry.CtrGICDelivery, 1)
		m.CPUs[target].IRQ.Send(gic.Delivery{CPU: target, IRQ: irq, At: now})
	})
}

// Micros converts a sim duration to microseconds on this machine.
func (m *Machine) Micros(d sim.Time) float64 {
	return m.Cost.CyclesToMicros(cpu.Cycles(d))
}
