package timer

import (
	"testing"

	"armvirt/internal/sim"
)

func TestProgramFiresAtCval(t *testing.T) {
	e := sim.NewEngine()
	var firedAt sim.Time = -1
	var firedCPU int
	vt := NewVirtualTimer(e, 2, func(p int) { firedAt = e.Now(); firedCPU = p })
	vt.Program(500)
	e.Run()
	if firedAt != 500 || firedCPU != 2 {
		t.Fatalf("fired at %d on cpu %d, want 500 on 2", firedAt, firedCPU)
	}
	if vt.Enabled() {
		t.Fatal("timer should auto-disable after expiry")
	}
}

func TestOffsetShiftsGuestView(t *testing.T) {
	e := sim.NewEngine()
	var firedAt sim.Time = -1
	vt := NewVirtualTimer(e, 0, func(int) { firedAt = e.Now() })
	vt.Offset = 100
	e.After(100, func() {
		if vt.ReadCounter() != 0 {
			t.Errorf("guest counter = %d at phys 100 with offset 100, want 0", vt.ReadCounter())
		}
		vt.Program(50) // guest time 50 = physical 150
	})
	e.Run()
	if firedAt != 150 {
		t.Fatalf("fired at %d, want 150", firedAt)
	}
}

func TestCancelSuppressesExpiry(t *testing.T) {
	e := sim.NewEngine()
	fired := false
	vt := NewVirtualTimer(e, 0, func(int) { fired = true })
	vt.Program(500)
	e.After(100, vt.Cancel)
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestReprogramSupersedesOldDeadline(t *testing.T) {
	e := sim.NewEngine()
	var fires []sim.Time
	vt := NewVirtualTimer(e, 0, func(int) { fires = append(fires, e.Now()) })
	vt.Program(500)
	e.After(100, func() { vt.Program(300) })
	e.Run()
	if len(fires) != 1 || fires[0] != 300 {
		t.Fatalf("fires = %v, want [300]", fires)
	}
}

func TestProgramInPastFiresImmediately(t *testing.T) {
	e := sim.NewEngine()
	var firedAt sim.Time = -1
	vt := NewVirtualTimer(e, 0, func(int) { firedAt = e.Now() })
	e.After(1000, func() { vt.Program(10) })
	e.Run()
	if firedAt != 1000 {
		t.Fatalf("fired at %d, want 1000", firedAt)
	}
}

func TestPeriodicTick(t *testing.T) {
	e := sim.NewEngine()
	raised := 0
	handled := 0
	vt := NewVirtualTimer(e, 0, func(int) { raised++ })
	stop := PeriodicTick(e, vt, 100, func() { handled++ })
	e.At(550, stop)
	e.Run()
	if raised != 5 || handled != 5 {
		t.Fatalf("raised=%d handled=%d, want 5/5 ticks by t=550", raised, handled)
	}
}
