package workload

import (
	"fmt"
	"testing"

	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

// fleetBenchParams sizes the PDES speedup benchmark. The quantum window is
// the lookahead (IPIWire = 150 cycles on the ARM model), so the per-window
// event density per partition is roughly Tokens * lookahead / HopCycles —
// with 32 tokens hopping every 60 cycles that is ~80 events per window,
// enough simulated work between barriers for the parallel engine to
// amortize the window dispatch on a multi-core host.
var fleetBenchParams = FleetParams{Fibers: 16, Tokens: 32, Hops: 30, Epochs: 6, HopCycles: 60}

// BenchmarkFleetSpeedup is the PDES acceptance benchmark: the 8-PCPU
// hackbench-style fleet on the partitioned ARM machine at 1, 2 and 4
// window workers (Engine.SetWorkers; sub-benchmark par=N). Results are
// byte-identical at every worker count (the determinism tests in
// fleet_test.go pin that); only ns/op moves. On a multi-core host par=4
// should run at least 2x faster than par=1; on a single-core host the
// worker counts collapse to roughly equal wall time.
//
// The reported PDES health counters (windows, stall-cycles, outbox-msgs,
// plus a pN-stall-cycles breakdown per partition) are deterministic
// per-run quantities from sim.EngineStats — identical at every worker
// count — so BENCH_8.json can relate the speedup curve to how much
// barrier stall the scenario carries and where it concentrates.
func BenchmarkFleetSpeedup(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", workers), func(b *testing.B) {
			var es sim.EngineStats
			for i := 0; i < b.N; i++ {
				m := platform.ARMMachinePartitioned()
				m.Eng.SetWorkers(workers)
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
		})
	}
}

// BenchmarkFleetSerialEngine prices the same scenario on the classic
// single-partition machine — the baseline the partitioned engine's par=1
// case must stay close to: at one worker every window runs inline on the
// Run caller, and the partitioned engine adds only its barriers.
func BenchmarkFleetSerialEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := platform.ARMMachine()
		r := Fleet(m, fleetBenchParams)
		if r.Hops == 0 {
			b.Fatal("degenerate fleet run")
		}
	}
}
