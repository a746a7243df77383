package sched

import (
	"testing"
	"testing/quick"

	"armvirt/internal/sim"
)

func TestPaperLayoutValid(t *testing.T) {
	l := PaperLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l.Guest) != 4 || len(l.Backend) != 4 {
		t.Fatal("paper layout is a 4+4 split")
	}
}

func TestValidateCatchesBadLayouts(t *testing.T) {
	cases := map[string]Layout{
		"overlap":      {NCPU: 8, Guest: []int{0, 1}, Backend: []int{1, 2}},
		"out of range": {NCPU: 4, Guest: []int{0}, Backend: []int{7}},
		"empty guest":  {NCPU: 8, Guest: nil, Backend: []int{4}},
		"dup in set":   {NCPU: 8, Guest: []int{0, 0}, Backend: []int{4}},
	}
	for name, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDispatcherBalances(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDispatcher(eng, "cpu", 4)
	var finish sim.Time
	for i := 0; i < 8; i++ {
		eng.Go("w", func(p *sim.Proc) {
			d.ExecBalanced(p, 100)
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	eng.Run()
	// 8 units of 100 over 4 CPUs: perfect balance = 200.
	if finish != 200 {
		t.Fatalf("finish = %d, want 200 (balanced)", finish)
	}
	for i, b := range d.Busy() {
		if b != 200 {
			t.Errorf("cpu%d busy = %d, want 200", i, b)
		}
	}
}

func TestDispatcherPinnedExec(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDispatcher(eng, "cpu", 2)
	var finish sim.Time
	for i := 0; i < 4; i++ {
		eng.Go("w", func(p *sim.Proc) {
			d.ExecOn(p, 0, 50) // all pinned to CPU 0
			finish = p.Now()
		})
	}
	eng.Run()
	if finish != 200 {
		t.Fatalf("finish = %d, want 200 (serialized on cpu0)", finish)
	}
	if d.Busy()[1] != 0 {
		t.Fatal("cpu1 should be idle")
	}
}

func TestBusyFractions(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDispatcher(eng, "cpu", 2)
	eng.Go("w", func(p *sim.Proc) { d.ExecOn(p, 0, 100) })
	eng.Run()
	f := d.BusyFractions(200)
	if f[0] != 0.5 || f[1] != 0 {
		t.Fatalf("fractions = %v", f)
	}
	if z := d.BusyFractions(0); z[0] != 0 {
		t.Fatal("zero window should give zero fractions")
	}
}

// Property: for any workload mix, total busy time equals total work and
// the makespan is at least work/N (no CPU invents capacity).
func TestDispatcherConservationProperty(t *testing.T) {
	prop := func(units []uint8) bool {
		if len(units) == 0 || len(units) > 40 {
			return true
		}
		eng := sim.NewEngine()
		d := NewDispatcher(eng, "cpu", 3)
		var total sim.Time
		var finish sim.Time
		for _, u := range units {
			cost := sim.Time(int(u)%50 + 1)
			total += cost
			eng.Go("w", func(p *sim.Proc) {
				d.ExecBalanced(p, cost)
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		eng.Run()
		var busy sim.Time
		for _, b := range d.Busy() {
			busy += b
		}
		return busy == total && finish >= (total+2)/3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
