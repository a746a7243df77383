package main

import (
	"armvirt/internal/hw"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// PD1's fleet parameters: workload.FleetParams' defaults, which PD1 runs
// with. The expected hop and IPI totals are computed from them, not read
// back from the program.
const (
	fleetEpochs = 10
	fleetTokens = 8
	fleetHops   = 25
)

// fleetMode builds the machine one fleet mode runs on.
type fleetMode struct {
	name  string
	build func() *hw.Machine
}

// fleetModes are the three engines the fleet runs on: serial, then
// partitioned (one engine partition per PCPU) with one and with nproc
// window workers. The model work is identical in all three.
func fleetModes(nproc int) []fleetMode {
	partitioned := func(workers int) func() *hw.Machine {
		return func() *hw.Machine {
			m := platform.ARMMachinePartitioned()
			m.Eng.SetWorkers(workers)
			return m
		}
	}
	return []fleetMode{
		{"fleet.serial", platform.ARMMachine},
		{"fleet.par1", partitioned(1)},
		{"fleet.parn", partitioned(nproc)},
	}
}

// runFleetMode builds the mode's machine and runs PD1's fleet on it, in a
// span when traced.
func runFleetMode(tr *tracer, fm fleetMode) workload.FleetResult {
	var res workload.FleetResult
	tr.newGroup()
	tr.wrap("sim", fm.name, func() { res = workload.Fleet(fm.build(), workload.FleetParams{}) })
	return res
}

// checkFleet checks a fleet result against the totals its parameters
// imply and against the first result: hops, IPIs and checksum are the
// same on every engine.
func checkFleet(r *report, what string, got, first workload.FleetResult) {
	cpus := platform.NCPU
	if got.CPUs != cpus || got.Hops != cpus*fleetEpochs*fleetTokens*fleetHops || got.IPIs != cpus*fleetEpochs {
		r.fail("%s: %d CPUs, %d hops, %d IPIs; want %d, %d, %d", what, got.CPUs, got.Hops, got.IPIs,
			cpus, cpus*fleetEpochs*fleetTokens*fleetHops, cpus*fleetEpochs)
	}
	if got.Hops != first.Hops || got.IPIs != first.IPIs || got.Checksum != first.Checksum {
		r.fail("%s: result %v differs from the first run's %v", what, got, first)
	}
}

// runFleet is the fleet workload: it isolates the partitioned engine.
// Modes, interleaved: A = serial engine, B = partitioned at -par 1,
// C = partitioned at -par nproc.
func runFleet(cfg config) *report {
	r := newReport("fleet")
	modes := fleetModes(cfg.nproc)
	first := runFleetMode(nil, modes[0])
	checkFleet(r, "set-up "+modes[0].name, first, first)
	for _, fm := range modes[1:] {
		checkFleet(r, "set-up "+fm.name, runFleetMode(nil, fm), first)
	}
	if cfg.setupOnly {
		return r
	}
	if cfg.trace {
		traceRun(cfg, r, func(tr *tracer) {
			r.attempted++
			checkFleet(r, "traced fleet.serial", runFleetMode(tr, modes[0]), first)
		})
		return r
	}

	times := make([][]float64, len(modes))
	var alloc []float64
	var runs []func()
	for i, fm := range modes {
		runs = append(runs, func() {
			var res workload.FleetResult
			var mb float64
			times[i] = append(times[i], 1e3*gcTime(func() { mb = allocMB(func() { res = runFleetMode(nil, fm) }) }))
			if fm.name == "fleet.par1" {
				alloc = append(alloc, mb)
			}
			r.attempted++
			checkFleet(r, fm.name, res, first)
		})
	}
	interleave(cfg, runs)
	r.slot("mode_a_ms", "fleet_serial: serial engine", times[0], "ms")
	r.slot("mode_b_ms", "fleet_par1: partitioned, -par 1", times[1], "ms")
	r.slot("mode_c_ms", "fleet_parn: partitioned, -par nproc", times[2], "ms")
	r.slot("alloc_mb", "fleet_alloc: heap MB per -par 1 run", alloc, "MB")
	return r
}
