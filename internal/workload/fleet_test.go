package workload

import (
	"reflect"
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/hw"
	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/sim"
)

// fleetTestParams is small enough to run in milliseconds but still pushes
// thousands of events through every partition per run.
var fleetTestParams = FleetParams{Fibers: 8, Tokens: 6, Hops: 15, Epochs: 6, HopCycles: 40}

// fleetRun runs the fleet on a partitioned ARM machine and returns
// everything an observer could compare: the result, the merged event
// stream, the folded profile and engine stats.
func fleetRun(t *testing.T) (FleetResult, []obs.Event, string, sim.EngineStats) {
	t.Helper()
	m := platform.ARMMachinePartitioned()
	rec := obs.NewRecorder(m.NCPU(), 1<<12)
	m.SetRecorder(rec)
	r := Fleet(m, fleetTestParams)
	return r, rec.Events(), rec.Profile().Folded(), m.Eng.Stats()
}

// TestFleetDeterministicAcrossWorkers: the fleet result, the merged
// observability stream, the folded profile and the engine counters are
// identical across two runs of the partitioned fleet.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	base, baseEvs, baseProf, baseStats := fleetRun(t)
	if base.Hops == 0 || base.IPIs == 0 || len(baseEvs) == 0 || baseProf == "" {
		t.Fatalf("degenerate baseline run: %+v, %d events, profile %q", base, len(baseEvs), baseProf)
	}
	if base.Parts != base.CPUs+1 {
		t.Fatalf("expected %d partitions, got %d", base.CPUs+1, base.Parts)
	}
	r, evs, prof, stats := fleetRun(t)
	if !reflect.DeepEqual(r, base) {
		t.Fatalf("result differs\n got %+v\nwant %+v", r, base)
	}
	if !reflect.DeepEqual(evs, baseEvs) {
		for i := range baseEvs {
			if i < len(evs) && evs[i] != baseEvs[i] {
				t.Fatalf("event %d differs\n got %+v\nwant %+v", i, evs[i], baseEvs[i])
			}
		}
		t.Fatalf("event stream differs (len %d vs %d)", len(evs), len(baseEvs))
	}
	if prof != baseProf {
		t.Fatalf("folded profile differs\n got %q\nwant %q", prof, baseProf)
	}
	if !reflect.DeepEqual(stats, baseStats) {
		t.Fatalf("engine stats differ\n got %+v\nwant %+v", stats, baseStats)
	}
}

// TestFleetPartitionedMatchesSequential: the same scenario on an
// unpartitioned machine produces the same simulated outcome — partitioning
// changes only how the host executes the run.
func TestFleetPartitionedMatchesSequential(t *testing.T) {
	seq := hw.New(hw.Config{Arch: cpu.ARM, NCPU: platform.NCPU, Cost: platform.ARMCostModel()})
	want := Fleet(seq, fleetTestParams)

	par, _, _, _ := fleetRun(t)
	if par.Checksum != want.Checksum || par.Elapsed != want.Elapsed ||
		par.Hops != want.Hops || par.IPIs != want.IPIs {
		t.Fatalf("partitioned run diverged from sequential machine:\n got %v\nwant %v", par, want)
	}
	if !reflect.DeepEqual(par.PerCPU, want.PerCPU) {
		t.Fatalf("per-CPU counters diverged:\n got %+v\nwant %+v", par.PerCPU, want.PerCPU)
	}
	if want.Parts != 1 || par.Parts != platform.NCPU+1 {
		t.Fatalf("partition counts wrong: seq %d, par %d", want.Parts, par.Parts)
	}
}

// TestFleetCounts pins the closed-form event counts so parameter changes
// are deliberate.
func TestFleetCounts(t *testing.T) {
	r, _, _, _ := fleetRun(t)
	p := fleetTestParams
	if want := platform.NCPU * p.Epochs * p.Tokens * p.Hops; r.Hops != want {
		t.Fatalf("hops = %d, want %d", r.Hops, want)
	}
	if want := platform.NCPU * p.Epochs; r.IPIs != want {
		t.Fatalf("IPIs = %d, want %d", r.IPIs, want)
	}
}
