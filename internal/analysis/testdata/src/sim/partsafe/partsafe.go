// Package partsafe exercises the partition-isolation analyzer: its
// import path sits under the deterministic scope ("sim/..."), so any
// package-level-variable write reachable from the stand-in engine's
// dispatch surface must be flagged, while host-side writes, local state,
// and //armvirt:partshared waivers stay silent.
package partsafe

import "sim"

// Package-level state: writes from dispatch are cross-partition hazards.
var (
	hits   int64
	table  = map[string]int64{}
	hostN  int64
	waived int64
)

// Cell is partition-owned state threaded through the closures: writing
// it is the remediation shape, no global involved.
type Cell struct{ n int64 }

// Run hands closures and a named function to the dispatch surface.
func Run(e *sim.Engine, c *Cell) {
	e.Go(func() {
		hits++ // want `writes package-level partsafe.hits but is reachable from partitioned dispatch`
		c.n++  // partition-owned: fine
	})
	e.At(10, tick)
	e.SendTo(1, 20, func() {
		table["x"] = 1 // want `writes package-level partsafe.table`
	})
}

// tick is dispatch-reachable through the e.At above, so its writes are
// flagged even though it never references the engine itself.
func tick() {
	delete(table, "y") // want `writes package-level partsafe.table`
}

// deeper is reached transitively: dispatch closure -> helper -> write.
func Deeper(e *sim.Engine) {
	e.After(5, func() { helper() })
}

func helper() {
	hits-- // want `writes package-level partsafe.hits`
}

// ProcForms hands callbacks to Proc.SendTo, which dispatches exactly as
// the engine's ambient form does.
func ProcForms(p *sim.Proc) {
	p.SendTo(1, 20, func() {
		hits++ // want `writes package-level partsafe.hits`
	})
	p.SendTo(1, 20, procTick)
}

// procTick is dispatch-reachable through the p.SendTo above.
func procTick() {
	table["z"] = 2 // want `writes package-level partsafe.table`
}

// Host runs on the host side only — nothing hands it to dispatch — so
// its global write is legal.
func Host() {
	hostN++
}

// Waive marks deliberately shared, externally synchronized state.
func Waive(e *sim.Engine) {
	e.Go(func() {
		//armvirt:partshared drained at quantum barriers by the host
		waived++
	})
}
