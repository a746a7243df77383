package gic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"armvirt/internal/sim"
)

func TestIRQClasses(t *testing.T) {
	if IRQ(5).Class() != "SGI" || IRQ(27).Class() != "PPI" || IRQ(64).Class() != "SPI" {
		t.Fatal("IRQ class boundaries wrong")
	}
}

func TestSGIDeliveryAfterWireLatency(t *testing.T) {
	e := sim.NewEngine()
	var got []Delivery
	var at sim.Time
	d := NewDistributor(e, 4, 150, func(del Delivery) {
		got = append(got, del)
		at = e.Now()
	})
	e.Go("sender", func(p *sim.Proc) {
		p.Sleep(100)
		d.SendSGI(p, 2, 3)
	})
	e.Run()
	if len(got) != 1 || got[0].CPU != 2 || got[0].IRQ != 3 {
		t.Fatalf("got %v", got)
	}
	if at != 250 {
		t.Fatalf("delivered at %d, want 250", at)
	}
}

func TestSPIRoutingAndMasking(t *testing.T) {
	e := sim.NewEngine()
	var got []Delivery
	d := NewDistributor(e, 4, 10, func(del Delivery) { got = append(got, del) })
	nic := IRQ(68)
	d.RaiseSPI(nic) // masked: dropped
	e.Run()
	if len(got) != 0 {
		t.Fatal("masked SPI must not deliver")
	}
	d.Enable(nic)
	d.SetTarget(nic, 3)
	d.RaiseSPI(nic)
	e.Run()
	if len(got) != 1 || got[0].CPU != 3 || got[0].IRQ != nic {
		t.Fatalf("got %v", got)
	}
}

func TestSendSGIRejectsNonSGI(t *testing.T) {
	e := sim.NewEngine()
	d := NewDistributor(e, 2, 0, func(Delivery) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SendSGI(nil, 0, 40)
}

func TestSetTargetRejectsSGIAndBadCPU(t *testing.T) {
	e := sim.NewEngine()
	d := NewDistributor(e, 2, 0, func(Delivery) {})
	for _, fn := range []func(){
		func() { d.SetTarget(3, 0) },
		func() { d.SetTarget(40, 7) },
		func() { d.SendSGI(nil, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPPIDelivery(t *testing.T) {
	e := sim.NewEngine()
	var got []Delivery
	d := NewDistributor(e, 4, 5, func(del Delivery) { got = append(got, del) })
	d.RaisePPI(1, 27) // virtual timer PPI
	e.Run()
	if len(got) != 1 || got[0].CPU != 1 || got[0].IRQ != 27 {
		t.Fatalf("got %v", got)
	}
}

func TestLRLifecycle(t *testing.T) {
	v := NewVirtualIface(4, nil)
	if !v.Inject(40) {
		t.Fatal("inject should use a hardware LR")
	}
	if p := v.PendingVirq(); p != 40 {
		t.Fatalf("pending = %d, want 40", p)
	}
	v.Ack(40)
	if v.PendingVirq() != -1 {
		t.Fatal("no pending after ack")
	}
	v.Complete(40)
	if v.HasPendingOrActive() {
		t.Fatal("LR should be free after complete")
	}
}

func TestInjectCollapsesDuplicates(t *testing.T) {
	v := NewVirtualIface(4, nil)
	v.Inject(40)
	v.Inject(40)
	count := 0
	for i := 0; i < v.NumLRs(); i++ {
		if v.LR(i).State != LRInvalid {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d LRs in use, want 1", count)
	}
}

func TestOverflowAndMaintenance(t *testing.T) {
	maints := 0
	v := NewVirtualIface(2, func() { maints++ })
	v.Inject(40)
	v.Inject(41)
	if v.Inject(42) { // no free LR: spills
		t.Fatal("third inject should overflow")
	}
	if v.OverflowLen() != 1 {
		t.Fatalf("overflow = %d, want 1", v.OverflowLen())
	}
	v.Ack(40)
	v.Complete(40) // frees an LR while overflow pending -> maintenance
	if maints != 1 {
		t.Fatalf("maintenance fired %d times, want 1", maints)
	}
	if n := v.RefillFromOverflow(); n != 1 {
		t.Fatalf("refilled %d, want 1", n)
	}
	if v.PendingVirq() != 41 {
		t.Fatalf("pending = %d, want 41", v.PendingVirq())
	}
}

func TestAckNotPendingPanics(t *testing.T) {
	v := NewVirtualIface(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Ack(40)
}

func TestCompleteNotActivePanics(t *testing.T) {
	v := NewVirtualIface(2, nil)
	v.Inject(40)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Complete(40) // pending, not active
}

func TestSaveLoadImageRoundTrip(t *testing.T) {
	v := NewVirtualIface(4, nil)
	v.Inject(40)
	v.Inject(41)
	v.Ack(40)
	img := v.SaveImage()
	v.Clear()
	if v.HasPendingOrActive() {
		t.Fatal("clear failed")
	}
	v.LoadImage(img)
	if v.PendingVirq() != 41 {
		t.Fatalf("pending = %d after reload, want 41", v.PendingVirq())
	}
	v.Complete(40)
}

func TestLoadImageMismatchedPanics(t *testing.T) {
	v := NewVirtualIface(4, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.LoadImage(Image{LRs: make([]ListRegister, 2)})
}

// Property: under any interleaving of injects/acks/completes, (1) a virq
// never occupies two LRs, (2) pending+active+overflow count never exceeds
// the number of distinct injected virqs, and (3) the interface is empty
// after all injected virqs complete.
func TestLRInvariantsProperty(t *testing.T) {
	prop := func(seed int64, nLR uint8, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nLR%4) + 1
		v := NewVirtualIface(n, nil)
		injected := map[IRQ]bool{} // virq -> in flight
		active := map[IRQ]bool{}
		for i := 0; i < int(ops); i++ {
			virq := IRQ(32 + rng.Intn(6))
			switch rng.Intn(3) {
			case 0:
				v.Inject(virq)
				injected[virq] = true
			case 1:
				if p := v.PendingVirq(); p != -1 {
					v.Ack(p)
					active[p] = true
				}
			case 2:
				for a := range active {
					v.Complete(a)
					delete(active, a)
					delete(injected, a)
					v.RefillFromOverflow()
					break
				}
			}
			// invariant 1: no duplicate LR entries
			seen := map[IRQ]int{}
			for j := 0; j < v.NumLRs(); j++ {
				lr := v.LR(j)
				if lr.State != LRInvalid {
					seen[lr.VirtID]++
					if seen[lr.VirtID] > 1 {
						return false
					}
				}
			}
		}
		// drain: ack+complete everything
		for guard := 0; guard < 100; guard++ {
			if p := v.PendingVirq(); p != -1 && !active[p] {
				v.Ack(p)
				active[p] = true
				continue
			}
			done := false
			for a := range active {
				v.Complete(a)
				delete(active, a)
				delete(injected, a)
				v.RefillFromOverflow()
				done = true
				break
			}
			if !done {
				break
			}
		}
		return !v.HasPendingOrActive()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLAPICInjectAckEOI(t *testing.T) {
	l := NewLAPIC(0, false)
	l.InjectVirtual(0x31)
	l.InjectVirtual(0x31) // collapses
	if l.PendingVirtual() != 0x31 {
		t.Fatalf("pending = %d", l.PendingVirtual())
	}
	l.AckVirtual(0x31)
	if !l.HasInService() {
		t.Fatal("should be in service")
	}
	l.EOIVirtual(0x31)
	if l.HasInService() || l.PendingVirtual() != -1 {
		t.Fatal("should be idle after EOI")
	}
}

func TestLAPICLowestVectorFirst(t *testing.T) {
	l := NewLAPIC(0, true)
	l.InjectVirtual(0x40)
	l.InjectVirtual(0x31)
	if l.PendingVirtual() != 0x31 {
		t.Fatalf("pending = %d, want 0x31", l.PendingVirtual())
	}
}

func TestLAPICBadEOIPanics(t *testing.T) {
	l := NewLAPIC(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.EOIVirtual(0x31)
}

func TestLAPICAckWhileInServicePanics(t *testing.T) {
	l := NewLAPIC(0, false)
	l.InjectVirtual(0x31)
	l.InjectVirtual(0x32)
	l.AckVirtual(0x31)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.AckVirtual(0x32)
}
