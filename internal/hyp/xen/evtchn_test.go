package xen

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvtchnLifecycle(t *testing.T) {
	dom0 := NewEvtchnTable(0)
	domU := NewEvtchnTable(1)

	// Dom0 offers a port for domain 1; DomU binds to it.
	p0 := dom0.AllocUnbound(1)
	if dom0.State(p0) != ChanUnbound {
		t.Fatalf("state = %v", dom0.State(p0))
	}
	pU, err := domU.BindInterdomain(dom0, p0)
	if err != nil {
		t.Fatal(err)
	}
	if dom0.State(p0) != ChanInterdomain || domU.State(pU) != ChanInterdomain {
		t.Fatal("binding did not connect both ends")
	}

	// DomU kicks Dom0.
	got, err := domU.Send(dom0, pU)
	if err != nil || got != p0 {
		t.Fatalf("send -> %d, %v; want %d", got, err, p0)
	}
	if !dom0.HasPending() {
		t.Fatal("dom0 should have a pending event")
	}
	scanned := dom0.ScanPending()
	if len(scanned) != 1 || scanned[0] != p0 {
		t.Fatalf("scan = %v", scanned)
	}
	if dom0.HasPending() {
		t.Fatal("scan should clear pending bits")
	}
}

func TestEvtchnBindErrors(t *testing.T) {
	dom0 := NewEvtchnTable(0)
	domU := NewEvtchnTable(1)
	domV := NewEvtchnTable(2)
	p0 := dom0.AllocUnbound(1)
	if _, err := domV.BindInterdomain(dom0, p0); err == nil {
		t.Fatal("binding a port reserved for another domain must fail")
	}
	if _, err := domU.BindInterdomain(dom0, 99); err == nil {
		t.Fatal("binding a free port must fail")
	}
	pU, _ := domU.BindInterdomain(dom0, p0)
	if _, err := domU.BindInterdomain(dom0, p0); err == nil {
		t.Fatal("double bind must fail")
	}
	_ = pU
}

func TestEvtchnSendOnUnboundFails(t *testing.T) {
	dom0 := NewEvtchnTable(0)
	domU := NewEvtchnTable(1)
	p := dom0.AllocUnbound(1)
	if _, err := dom0.Send(domU, p); err == nil {
		t.Fatal("send on unbound port must fail")
	}
	if _, err := dom0.Send(domU, 42); err == nil {
		t.Fatal("send on free port must fail")
	}
}

func TestScanOrderAscending(t *testing.T) {
	dom0 := NewEvtchnTable(0)
	domU := NewEvtchnTable(1)
	var uPorts []Port
	for i := 0; i < 5; i++ {
		p0 := dom0.AllocUnbound(1)
		pU, _ := domU.BindInterdomain(dom0, p0)
		uPorts = append(uPorts, pU)
	}
	// Send in reverse order; scan must still come out ascending.
	for i := len(uPorts) - 1; i >= 0; i-- {
		_, _ = domU.Send(dom0, uPorts[i])
	}
	scanned := dom0.ScanPending()
	for i := 1; i < len(scanned); i++ {
		if scanned[i] <= scanned[i-1] {
			t.Fatalf("scan order: %v", scanned)
		}
	}
	if len(scanned) != 5 {
		t.Fatalf("scanned %d, want 5", len(scanned))
	}
}

// Property: events are never lost or duplicated — every send is observed
// by exactly one subsequent scan.
func TestEvtchnDeliveryProperty(t *testing.T) {
	prop := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dom0 := NewEvtchnTable(0)
		domU := NewEvtchnTable(1)
		var ports []Port
		sent := map[Port]bool{} // dom0-side ports with an unscanned event
		scannedTotal := 0
		sentTotal := 0
		for i := 0; i < int(ops); i++ {
			switch rng.Intn(3) {
			case 0:
				p0 := dom0.AllocUnbound(1)
				pU, err := domU.BindInterdomain(dom0, p0)
				if err != nil {
					return false
				}
				ports = append(ports, pU)
			case 1:
				if len(ports) > 0 {
					pU := ports[rng.Intn(len(ports))]
					p0, err := domU.Send(dom0, pU)
					if err != nil {
						return false
					}
					if !sent[p0] {
						sent[p0] = true
						sentTotal++
					}
				}
			case 2:
				for _, p := range dom0.ScanPending() {
					if !sent[p] {
						return false // phantom event
					}
					delete(sent, p)
					scannedTotal++
				}
			}
		}
		for _, p := range dom0.ScanPending() {
			if !sent[p] {
				return false
			}
			delete(sent, p)
			scannedTotal++
		}
		return len(sent) == 0 && scannedTotal == sentTotal
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
