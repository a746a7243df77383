package obs

import (
	"reflect"
	"testing"

	"armvirt/internal/sim"
)

// TestPartitionedRecorderMergeOrder: on a partitioned engine the recorder
// keeps one sequence counter, so Events merges the per-CPU and
// machine-level rings in emission order — the order the Run caller
// dispatched the windows in, partition by partition — not in time order.
func TestPartitionedRecorderMergeOrder(t *testing.T) {
	e := sim.NewEngine()
	e.SetLookahead(100)
	p1, p2 := e.AddPartition("p1"), e.AddPartition("p2")
	r := NewRecorder(2, 64)
	emit := func(part sim.PartID, name string, pcpu int, at sim.Time) {
		e.GoOn(part, name, func(p *sim.Proc) {
			p.Sleep(at)
			r.Emit(p.Now(), IOKick, pcpu, "", -1, name, 0)
		})
	}
	// One window covers all three: p1's events run before p2's, and the
	// shared partition 0's before both.
	emit(p2, "cpu1@5", 1, 5)
	emit(p1, "cpu0@8", 0, 8)
	emit(0, "machine@9", -1, 9)
	e.Run()

	var got []string
	for i, ev := range r.Events() {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
		got = append(got, ev.Detail)
	}
	if want := []string{"machine@9", "cpu0@8", "cpu1@5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
	if r.Total() != 3 || r.Count(IOKick) != 3 {
		t.Fatalf("counts wrong: total=%d io-kick=%d", r.Total(), r.Count(IOKick))
	}
}

// TestPartitionedProfileMerge: spans charged by fibers on different
// partitions build one span tree, identical across two runs.
func TestPartitionedProfileMerge(t *testing.T) {
	run := func() string {
		e := sim.NewEngine()
		e.SetLookahead(10)
		p1 := e.AddPartition("p1")
		p2 := e.AddPartition("p2")
		r := NewRecorder(2, 64)
		spawn := func(part sim.PartID, name, phase string, c int64) {
			e.GoOn(part, name, func(p *sim.Proc) {
				InSpan(r, p, phase, func() {
					p.Sleep(sim.Time(c))
					r.ChargeCycles(p, "work", c)
				})
			})
		}
		spawn(p2, "b", "phase-b", 70)
		spawn(p1, "a", "phase-a", 40)
		e.Run()
		return r.Profile().Folded()
	}
	first := run()
	want := "phase-a;work 40\nphase-b;work 70\n"
	if first != want {
		t.Fatalf("folded = %q, want %q", first, want)
	}
	if second := run(); second != first {
		t.Fatalf("folded profile differs between two runs:\nfirst: %q\nsecond: %q", first, second)
	}
}

// TestSinglePartitionRecorderUnchanged: on a single-partition engine the
// merged events keep the global Seq order byte for byte.
func TestSinglePartitionRecorderUnchanged(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Emit(5, GuestEnter, 0, "vm", 0, "a", 0)
	r.Emit(5, GuestEnter, 1, "vm", 1, "b", 0)
	r.Emit(7, IOKick, -1, "", -1, "c", 0)
	r.Emit(9, ProcEvent, -1, "", -1, "d", 0)
	evs := r.Events()
	if len(evs) != 4 || evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 || evs[3].Seq != 4 {
		t.Fatalf("single-partition seq order broken: %+v", evs)
	}
	if evs[0].Detail != "a" || evs[1].Detail != "b" || evs[2].Detail != "c" || evs[3].Detail != "d" {
		t.Fatalf("single-partition order broken: %+v", evs)
	}
}
