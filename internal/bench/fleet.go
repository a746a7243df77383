package bench

import (
	"fmt"
	"strings"

	"armvirt/internal/obs"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// FleetResult is the partitioned-engine extension experiment: the fleet
// workload (every CPU running a hackbench-style token ring, synchronized
// by IPI barriers) on the partitioned ARM machine. Its output is a pure
// function of the simulation — no row or rendered byte depends on the
// host — which is the partitioned engine's determinism contract made
// diffable.
type FleetResult struct {
	Fleet workload.FleetResult
	// Events and ProfiledCycles summarize the run's observability
	// output, proving the recorder is exercised on a partitioned machine.
	Events         int
	ProfiledCycles int64
}

// RunFleet runs the fleet scenario on a partitioned ARM machine. The
// engine dispatches its windows on the calling goroutine.
func RunFleet() FleetResult {
	m := platform.ARMMachinePartitioned()
	rec := obs.NewRecorder(m.NCPU(), 1<<12)
	m.SetRecorder(rec)
	fl := workload.Fleet(m, workload.FleetParams{})
	return FleetResult{
		Fleet:          fl,
		Events:         int(rec.Total()),
		ProfiledCycles: rec.Profile().Total(),
	}
}

// Rows enumerates the fleet run. The 64-bit checksum is split into exact
// 32-bit halves so it survives the float64 JSON encoding losslessly.
func (r FleetResult) Rows() []Row {
	rows := []Row{
		row("fleet_cpus", float64(r.Fleet.CPUs), ""),
		row("fleet_partitions", float64(r.Fleet.Parts), ""),
		row("fleet_hops", float64(r.Fleet.Hops), ""),
		row("fleet_ipis", float64(r.Fleet.IPIs), ""),
		row("fleet_elapsed", r.Fleet.ElapsedUs, "us"),
		row("fleet_checksum_hi", float64(r.Fleet.Checksum>>32), ""),
		row("fleet_checksum_lo", float64(r.Fleet.Checksum&0xffffffff), ""),
		row("fleet_events", float64(r.Events), ""),
		row("fleet_profiled", float64(r.ProfiledCycles), "cycles"),
	}
	for c, st := range r.Fleet.PerCPU {
		rows = append(rows, row("fleet_cpu_ipis", float64(st.IPIs), "", "cpu", fmt.Sprint(c)))
	}
	return rows
}

// Render formats the experiment.
func (r FleetResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: partitioned-engine fleet (per-CPU token rings + IPI barriers)\n")
	fmt.Fprintf(&b, "machine: %d CPUs on %d engine partitions (lookahead = IPI wire)\n",
		r.Fleet.CPUs, r.Fleet.Parts)
	fmt.Fprintf(&b, "%-8s %10s %10s %18s\n", "cpu", "hops", "IPIs", "checksum")
	for c, st := range r.Fleet.PerCPU {
		fmt.Fprintf(&b, "%-8d %10d %10d   %016x\n", c, st.Hops, st.IPIs, st.Checksum)
	}
	fmt.Fprintf(&b, "total: %d hops, %d IPIs, %.1f us simulated, %d events, %d profiled cycles\n",
		r.Fleet.Hops, r.Fleet.IPIs, r.Fleet.ElapsedUs, r.Events, r.ProfiledCycles)
	fmt.Fprintf(&b, "checksum: %016x (folds every hop and IRQ with its timestamp;\n", r.Fleet.Checksum)
	b.WriteString(" identical at every window-worker count (GOMAXPROCS) by the engine's determinism contract)\n")
	return b.String()
}
