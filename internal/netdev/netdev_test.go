package netdev

import (
	"testing"

	"armvirt/internal/gic"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
	"armvirt/internal/vio"
)

func TestWireSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	// 10 Gbps at 2400 MHz: 1.92 cycles/byte; 5 us propagation = 12000c.
	w := NewWire(eng, "up", 10, 2400, 5)
	var arrivals []sim.Time
	eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			w.Out.Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	w.Send(&vio.Packet{Seq: 1, Bytes: 1500}) // tx done at 2880
	w.Send(&vio.Packet{Seq: 2, Bytes: 1500}) // serializes: tx done at 5760
	eng.Run()
	if arrivals[0] != 2880+12000 {
		t.Fatalf("first arrival %d, want %d", arrivals[0], 2880+12000)
	}
	if arrivals[1] != 5760+12000 {
		t.Fatalf("second arrival %d, want %d (serialization)", arrivals[1], 5760+12000)
	}
	if pkts, bytes := w.Delivered(); pkts != 2 || bytes != 3000 {
		t.Fatalf("delivered %d/%d", pkts, bytes)
	}
}

func TestNICWithoutCoalescingFiresPerPacket(t *testing.T) {
	m := platform.ARMMachine()
	nic := NewNIC(m, gic.IRQ(68), 0)
	for i := int64(0); i < 4; i++ {
		nic.Receive(&vio.Packet{Seq: i, Bytes: 64})
	}
	if nic.IRQCount() != 4 {
		t.Fatalf("irqs = %d, want 4", nic.IRQCount())
	}
	if nic.RxQueue.Len() != 4 {
		t.Fatalf("rx queue = %d, want 4", nic.RxQueue.Len())
	}
	m.Eng.Run() // drain the delivery events
	if m.CPUs[0].IRQ.Len() != 4 {
		t.Fatalf("CPU0 saw %d IRQs, want 4", m.CPUs[0].IRQ.Len())
	}
}

func TestNICAttachPumpsWire(t *testing.T) {
	m := platform.ARMMachine()
	w := NewWire(m.Eng, "down", 10, 2400, 1)
	nic := NewNIC(m, gic.IRQ(68), 2)
	nic.Attach(w)
	w.Send(&vio.Packet{Seq: 7, Bytes: 200})
	m.Eng.Run()
	pk, ok := nic.RxQueue.TryRecv()
	if !ok || pk.Seq != 7 {
		t.Fatalf("NIC did not receive wire packet: %v %v", pk, ok)
	}
	if nic.IRQCount() != 1 {
		t.Fatalf("irqs = %d", nic.IRQCount())
	}
}
