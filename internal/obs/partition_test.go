package obs

import (
	"reflect"
	"testing"

	"armvirt/internal/sim"
)

// TestPartitionedRecorderMergeOrder: the merged event order of a
// partitioned recorder is (T, partition, partition-local seq), with Seq
// renumbered to the merged position — regardless of physical emission
// interleaving.
func TestPartitionedRecorderMergeOrder(t *testing.T) {
	r := NewRecorder(2, 64)
	r.Partition(3, []int{1, 2}) // cpu0 -> part1, cpu1 -> part2

	// Emit out of "merge" order to prove the sort is on content.
	r.Emit(20, GuestExit, 1, "vm", 0, "late-cpu1", 0) // part2 @20
	r.Emit(10, GuestEnter, 0, "vm", 0, "cpu0", 0)     // part1 @10
	r.EmitPart(10, 0, ProcEvent, -1, "", -1, "shared", 0)
	r.Emit(10, GuestExit, 1, "vm", 0, "cpu1", 0) // part2 @10
	r.Emit(20, IOKick, 0, "vm", 0, "cpu0-late", 0)

	evs := r.Events()
	var got []string
	for _, e := range evs {
		got = append(got, e.Detail)
	}
	want := []string{"shared", "cpu0", "cpu1", "cpu0-late", "late-cpu1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged order = %v, want %v", got, want)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if r.Total() != 5 || r.Count(GuestExit) != 2 {
		t.Fatalf("counts wrong: total=%d guest-exit=%d", r.Total(), r.Count(GuestExit))
	}
}

// TestPartitionAfterEmitPanics: the layout can only change on a fresh
// recorder.
func TestPartitionAfterEmitPanics(t *testing.T) {
	r := NewRecorder(1, 16)
	r.Emit(1, IOKick, 0, "", -1, "x", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected Partition after Emit to panic")
		}
	}()
	r.Partition(2, []int{1})
}

// TestPartitionNilSafe: all new surface stays nil-safe (the zero-cost
// nil-recorder idiom).
func TestPartitionNilSafe(t *testing.T) {
	var r *Recorder
	r.Partition(4, []int{1, 2, 3})
	r.EmitPart(1, 2, IOKick, -1, "", -1, "x", 0)
	if r.Partitions() != 0 {
		t.Fatal("nil recorder should report 0 partitions")
	}
}

// TestPartitionedProfileMerge: spans charged by fibers on different
// partitions merge into one deterministic tree in partition order.
func TestPartitionedProfileMerge(t *testing.T) {
	run := func(workers int) string {
		e := sim.NewEngine()
		e.SetLookahead(10)
		p1 := e.AddPartition("p1")
		p2 := e.AddPartition("p2")
		e.SetWorkers(workers)
		r := NewRecorder(2, 64)
		r.Partition(3, []int{1, 2})
		spawn := func(part sim.PartID, name, phase string, c int64) {
			e.GoOn(part, name, func(p *sim.Proc) {
				r.Span(p, phase)
				p.Sleep(sim.Time(c))
				r.ChargeCycles(p, "work", c)
				r.EndSpan(p)
			})
		}
		spawn(p2, "b", "phase-b", 70)
		spawn(p1, "a", "phase-a", 40)
		e.Run()
		return r.Profile().Folded()
	}
	serial := run(1)
	if serial == "" {
		t.Fatal("empty folded profile")
	}
	want := "phase-a;work 40\nphase-b;work 70\n"
	if serial != want {
		t.Fatalf("merged folded = %q, want %q", serial, want)
	}
	if par := run(4); par != serial {
		t.Fatalf("folded profile differs across workers:\nserial: %q\nparallel: %q", par, serial)
	}
	// Merged totals survive ResetProfile + recharge.
}

// TestSinglePartitionRecorderUnchanged: the default layout keeps the
// original global-Seq semantics byte for byte.
func TestSinglePartitionRecorderUnchanged(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Emit(5, GuestEnter, 0, "vm", 0, "a", 0)
	r.Emit(5, GuestEnter, 1, "vm", 1, "b", 0)
	r.Emit(7, IOKick, -1, "", -1, "c", 0)
	// The engine's process tap emits through EmitPart on every machine;
	// partition 0 is the cursor Emit uses for machine-level events.
	r.EmitPart(9, 0, ProcEvent, -1, "", -1, "d", 0)
	evs := r.Events()
	if len(evs) != 4 || evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 || evs[3].Seq != 4 {
		t.Fatalf("single-partition seq order broken: %+v", evs)
	}
	if evs[0].Detail != "a" || evs[1].Detail != "b" || evs[2].Detail != "c" || evs[3].Detail != "d" {
		t.Fatalf("single-partition order broken: %+v", evs)
	}
}
