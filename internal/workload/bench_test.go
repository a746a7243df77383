package workload

import (
	"fmt"
	"testing"

	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

// fleetBenchParams sizes the fleet benchmarks. The quantum window is the
// lookahead (IPIWire = 150 cycles on the ARM model), so the per-window
// event density per partition is roughly Tokens * lookahead / HopCycles —
// with 32 tokens hopping every 60 cycles that is ~80 events per window.
var fleetBenchParams = FleetParams{Fibers: 16, Tokens: 32, Hops: 30, Epochs: 6, HopCycles: 60}

// BenchmarkFleetPartitioned prices the 8-PCPU hackbench-style fleet on
// the partitioned ARM machine: lookahead windows dispatched one partition
// after another, with a message barrier between windows.
//
// The reported PDES health counters (windows, stall-cycles, outbox-msgs,
// plus a pN-stall-cycles breakdown per partition) are deterministic
// per-run quantities from sim.EngineStats, so a BENCH file can relate the
// wall time to how many barriers the scenario carries and how much stall
// a concurrent dispatcher could not overlap.
func BenchmarkFleetPartitioned(b *testing.B) {
	var es sim.EngineStats
	for i := 0; i < b.N; i++ {
		m := platform.ARMMachinePartitioned()
		r := Fleet(m, fleetBenchParams)
		if r.Hops == 0 {
			b.Fatal("degenerate fleet run")
		}
		es = m.Eng.Stats()
	}
	b.ReportMetric(float64(es.Windows), "windows")
	b.ReportMetric(float64(es.BarrierStallCycles), "stall-cycles")
	b.ReportMetric(float64(es.OutboxMsgs), "outbox-msgs")
	for _, ps := range es.Parts {
		b.ReportMetric(float64(ps.StallCycles), fmt.Sprintf("p%d-stall-cycles", ps.Part))
	}
}

// BenchmarkFleetSerialEngine prices the same scenario on the classic
// single-partition machine — the baseline BenchmarkFleetPartitioned must
// stay close to: the partitioned engine adds only its barriers.
func BenchmarkFleetSerialEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := platform.ARMMachine()
		r := Fleet(m, fleetBenchParams)
		if r.Hops == 0 {
			b.Fatal("degenerate fleet run")
		}
	}
}
