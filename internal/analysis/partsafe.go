// partsafe: code reachable from partitioned dispatch must not write
// shared package-level state.
//
// Engine dispatch code must own all the state it writes. core.RunAll -j
// runs several experiments' engines on concurrent goroutines, so a
// package-level variable written from inside dispatch is shared between
// them: the engines race on it, and the run order — and therefore the
// statistics — depend on host scheduling. Within one partitioned engine
// (DESIGN.md §11) each shard owns its partition's processes and state, and
// the only cross-partition channel is Engine.SendTo, whose messages are
// drained at barriers in deterministic (time, sender, sequence) order.
//
// partsafe walks the module call graph from every function value handed
// to the engine's dispatch surface (Go/GoOn/At/After/SendTo and the
// tracer/tap setters, per Module.DispatchReachable) and reports any
// package-level-variable write reachable from those roots, in packages
// within the deterministic scope (the detclock scope). The remediation
// is the same one the engine itself uses: route the mutation through
// Engine.SendTo so it lands at a barrier, or move the state onto the
// process/partition that owns it.
//
// Escape: a `//armvirt:partshared` comment on the write's line (or the
// line above) marks state that is deliberately shared and externally
// synchronized — the same shape as //armvirt:wallclock, and greppable
// the same way.
package analysis

import "sort"

// Partsafe is the partition-isolation analyzer.
var Partsafe = &Analyzer{
	Name: "partsafe",
	Doc: "code reachable from sim partitioned dispatch must not write package-level state; " +
		"cross-partition effects go through Engine.SendTo (escape: //armvirt:partshared)",
	Run: runPartsafe,
}

func runPartsafe(pass *Pass) error {
	if !detclockInScope(pass.Pkg.Path()) {
		return nil
	}
	reach := pass.Module.DispatchReachable()
	suppress := directiveLines(pass.Fset, pass.Files, "partshared")

	ids := append([]NodeID(nil), pass.Module.FuncsOf(pass.Pkg.Path())...)
	// Report in source order regardless of map iteration in reachability.
	sort.Slice(ids, func(i, j int) bool {
		return pass.Module.Funcs[ids[i]].Pos < pass.Module.Funcs[ids[j]].Pos
	})
	for _, id := range ids {
		if !reach[id] {
			continue
		}
		ff := pass.Module.Funcs[id]
		for _, gw := range ff.GlobalWrites {
			if suppressedAt(suppress, pass.Fset.Position(gw.Pos)) {
				continue
			}
			pass.ReportRange(gw.Pos, gw.End,
				"%s writes package-level %s but is reachable from partitioned dispatch; "+
					"route the effect through Engine.SendTo (or mark the line //armvirt:partshared)",
				ff.Name, gw.Name)
		}
	}
	return nil
}
