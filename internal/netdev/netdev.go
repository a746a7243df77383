// Package netdev models the measurement network of §III: 10 GbE NICs on
// both servers connected through a non-blocking switch, with the load
// generator running natively on a separate machine. The paper notes 10 GbE
// mattered: at 1 GbE the wire, not the hypervisor, was the bottleneck.
package netdev

import (
	"armvirt/internal/gic"
	"armvirt/internal/hw"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
	"armvirt/internal/vio"
)

// Wire is one direction of a full-duplex Ethernet link: transmissions
// serialize at the line rate, then arrive after the propagation delay
// (which stands in for switch latency plus the short cable runs).
type Wire struct {
	eng *sim.Engine
	// cyclesPerByte is the serialization cost at line rate.
	cyclesPerByte float64
	// propagation is the flight time.
	propagation sim.Time
	// busyUntil is when the transmitter frees up.
	busyUntil sim.Time
	// Out delivers packets at the far end.
	Out *sim.Queue[*vio.Packet]
	// delivered counts packets for throughput accounting.
	delivered int64
	bytes     int64
}

// NewWire creates one direction of a link. gbps is the line rate; freqMHz
// converts to cycles; propagationUs is the end-to-end flight time.
func NewWire(eng *sim.Engine, name string, gbps float64, freqMHz int, propagationUs float64) *Wire {
	bytesPerSec := gbps * 1e9 / 8
	cyclesPerSec := float64(freqMHz) * 1e6
	return &Wire{
		eng:           eng,
		cyclesPerByte: cyclesPerSec / bytesPerSec,
		propagation:   sim.Time(propagationUs * float64(freqMHz)),
		Out:           sim.NewQueue[*vio.Packet](eng, name+".out"),
	}
}

// Send transmits pk: it serializes after any packet already on the wire,
// then arrives propagation later. Send never blocks the caller (the NIC
// has transmit buffering); backpressure shows up as growing wire delay.
func (w *Wire) Send(pk *vio.Packet) {
	start := w.eng.Now()
	if w.busyUntil > start {
		start = w.busyUntil
	}
	txDone := start + sim.Time(float64(pk.Bytes)*w.cyclesPerByte)
	w.busyUntil = txDone
	w.eng.At(txDone+w.propagation, func() {
		w.delivered++
		w.bytes += int64(pk.Bytes)
		w.Out.Send(pk)
	})
}

// Delivered returns cumulative packets and bytes that reached the far end.
func (w *Wire) Delivered() (packets, bytes int64) { return w.delivered, w.bytes }

// NIC is the server's network adapter: each received frame is queued for
// the driver and raises an interrupt.
type NIC struct {
	m *hw.Machine
	// RxQueue holds frames awaiting the driver.
	RxQueue *sim.Queue[*vio.Packet]
	// IRQ is the NIC's interrupt line; Target the CPU it is routed to.
	IRQ    gic.IRQ
	Target int
	irqs   int64
}

// NewNIC creates a NIC on machine m with its interrupt routed to target.
func NewNIC(m *hw.Machine, irq gic.IRQ, target int) *NIC {
	return &NIC{
		m:       m,
		RxQueue: sim.NewQueue[*vio.Packet](m.Eng, "nic.rx"),
		IRQ:     irq,
		Target:  target,
	}
}

// Receive is called by the wire side when a frame arrives: DMA it into the
// receive queue and raise the interrupt.
func (n *NIC) Receive(pk *vio.Packet) {
	n.RxQueue.Send(pk)
	n.irqs++
	now := n.m.Eng.Now()
	n.m.Rec.Emit(now, obs.IOKick, n.Target, "", -1, "nic-irq", int64(n.IRQ))
	n.m.Tel.Count(now, -1, telemetry.CtrNICIRQ, 1)
	n.m.RaiseDeviceIRQ(n.IRQ, n.Target)
}

// IRQCount returns how many interrupts the NIC has raised.
func (n *NIC) IRQCount() int64 { return n.irqs }

// Attach wires packets arriving on w into the NIC.
func (n *NIC) Attach(w *Wire) {
	n.m.Eng.Go("nic-rx-dma", func(p *sim.Proc) {
		for {
			pk := w.Out.Recv(p)
			n.Receive(pk)
		}
	})
}
