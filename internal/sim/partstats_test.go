package sim

import (
	"reflect"
	"testing"
)

// TestPartitionedStatsHealthCounters: a multi-partition run reports the
// PDES health counters — quantum windows, barrier-stall cycles, outbox
// volume — totalled and broken down per partition, and the breakdown is
// internally consistent.
func TestPartitionedStatsHealthCounters(t *testing.T) {
	_, st, _ := partitionedRun(t, 42, 50000)
	if st.Windows == 0 {
		t.Error("Windows = 0, want > 0 on a partitioned run")
	}
	if st.BarrierStallCycles == 0 {
		t.Error("BarrierStallCycles = 0, want > 0 (partitions never advance in lockstep)")
	}
	if st.OutboxMsgs == 0 {
		t.Error("OutboxMsgs = 0, want > 0 (the workload crosses partitions)")
	}
	if len(st.Parts) != 4 {
		t.Fatalf("Parts has %d entries, want 4", len(st.Parts))
	}
	var windows, stall, outbox, events int64
	for i, ps := range st.Parts {
		if ps.Part != i {
			t.Errorf("Parts[%d].Part = %d, want %d (canonical partition order)", i, ps.Part, i)
		}
		windows += ps.Windows
		stall += ps.StallCycles
		outbox += ps.OutboxMsgs
		events += ps.Events
	}
	if windows != st.Windows || stall != st.BarrierStallCycles || outbox != st.OutboxMsgs {
		t.Errorf("per-partition sums (%d, %d, %d) do not match totals (%d, %d, %d)",
			windows, stall, outbox, st.Windows, st.BarrierStallCycles, st.OutboxMsgs)
	}
	if events != st.Events {
		t.Errorf("per-partition events sum %d != total %d", events, st.Events)
	}
}

// TestPartitionedStatsDeterministicAcrossWorkers: the health counters are
// simulated-time quantities, so two runs of one workload report the same
// ones.
func TestPartitionedStatsDeterministicAcrossWorkers(t *testing.T) {
	_, base, _ := partitionedRun(t, 7, 50000)
	if _, st, _ := partitionedRun(t, 7, 50000); !reflect.DeepEqual(st, base) {
		t.Errorf("stats differ between two runs\n got %+v\nwant %+v", st, base)
	}
}

// TestSequentialStatsOmitHealthCounters: a single-partition engine has no
// windows, barriers, or outboxes; the counters stay zero and Parts nil so
// JSON output omits them.
func TestSequentialStatsOmitHealthCounters(t *testing.T) {
	st := runSmallSim().Stats()
	if st.Windows != 0 || st.BarrierStallCycles != 0 || st.OutboxMsgs != 0 {
		t.Errorf("sequential engine reported PDES health counters: %+v", st)
	}
	if st.Parts != nil {
		t.Errorf("sequential engine has a partition breakdown: %+v", st.Parts)
	}
}

// TestMergeDropsPartsAcrossEngines: the per-partition breakdown only means
// something for a single engine; folding a second engine clears it while
// the scalar counters keep summing.
func TestMergeDropsPartsAcrossEngines(t *testing.T) {
	_, a, _ := partitionedRun(t, 1, 20000)
	_, b, _ := partitionedRun(t, 2, 20000)
	var m EngineStats
	m.Merge(a)
	if !reflect.DeepEqual(m.Parts, a.Parts) {
		t.Errorf("single-engine fold lost the breakdown: %+v", m.Parts)
	}
	m.Merge(b)
	if m.Parts != nil {
		t.Errorf("two-engine fold kept a breakdown: %+v", m.Parts)
	}
	if m.Windows != a.Windows+b.Windows ||
		m.BarrierStallCycles != a.BarrierStallCycles+b.BarrierStallCycles ||
		m.OutboxMsgs != a.OutboxMsgs+b.OutboxMsgs {
		t.Errorf("health counters did not sum: %+v from %+v and %+v", m, a, b)
	}
}
