// layering: the deterministic / wall-clock package boundary, checked as
// an explicit import DAG.
//
// The repo's reproducibility claim splits the module into two worlds
// (DESIGN.md §14): the deterministic tier — everything in DetclockScope,
// where simulated time is the only clock — and the wall-clock tier
// (serve, cluster, runlog, cliutil), which is allowed to look at real
// clocks, sockets, and disks. The per-package "clean" tests enforced
// pieces of this implicitly (runlog and cluster must be detclock-clean
// with zero wallclock waivers); layering makes the whole graph an
// explicit, checked artifact:
//
//  1. Deterministic packages must never import a wall-tier package. The
//     engine cannot depend on code that is licensed to read time.Now —
//     that would let wall-clock state flow into simulated results.
//  2. Wall-tier packages reach the deterministic world only through the
//     blessed seams: bench, core, sim, and telemetry. Engine internals
//     (gic, hyp, hw, sched, vio, netdev, blockdev, timer, mem, cpu,
//     micro, workload, platform, trace) are off limits — the seams exist
//     precisely so serving-tier code cannot grow ad-hoc dependencies on
//     device models. Shared substrate (obs, stats, det) is importable
//     from both worlds. Commands under cmd/ are composition roots and
//     exempt.
//  3. internal/analysis is the vet implementation and is imported only
//     by cmd/armvirt-vet; nothing else may depend on it.
//
// Violations are reported at the import declaration. There is no comment
// escape: changing the graph means changing these lists, in a reviewed
// diff, not waiving a site.
package analysis

import (
	"strconv"
	"strings"
)

// LayeringWall lists the wall-clock-tier package fragments (relative to
// armvirt/internal/, same matching as DetclockScope).
var LayeringWall = []string{"serve", "cluster", "runlog", "cliutil"}

// layeringSeams are the deterministic packages wall-tier code may import:
// the run/report APIs (core, bench), the engine facade (sim), and the
// series store (telemetry).
var layeringSeams = map[string]bool{
	"bench": true, "core": true, "sim": true, "telemetry": true,
}

// layeringEngineInternal extends the deny set for wall-tier importers
// beyond DetclockScope: packages that are engine plumbing even though the
// detclock analyzer tracks them separately (hw builds machines, platform
// is engine-facing substrate).
var layeringEngineInternal = []string{"hw", "platform"}

// Layering is the import-DAG analyzer.
var Layering = &Analyzer{
	Name: "layering",
	Doc: "deterministic packages must not import the wall tier (serve/cluster/runlog/cliutil); " +
		"wall-tier packages reach the engine only through bench/core/sim/telemetry; " +
		"internal/analysis is importable only by cmd/armvirt-vet",
	Run: runLayering,
}

// layerFrag reduces an import path to its fragment under the module's
// internal tree: "armvirt/internal/hyp/kvm" -> "hyp", bare fixture paths
// ("serve", "sched/layerbad") -> first segment, everything else
// (stdlib, armvirt root, cmd) -> "".
func layerFrag(path string) string {
	rel := strings.TrimPrefix(path, "armvirt/internal/")
	if rel == path {
		// Not under internal/: only bare fixture paths qualify.
		if path == "armvirt" || strings.HasPrefix(path, "armvirt/") {
			return ""
		}
		if strings.Contains(path, ".") {
			return "" // external module paths carry a domain
		}
		rel = path
	}
	if i := strings.IndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return rel
}

func fragIn(frag string, set []string) bool {
	for _, s := range set {
		if frag == s {
			return true
		}
	}
	return false
}

// layerWall reports whether an import path belongs to the wall tier.
func layerWall(path string) bool { return fragIn(layerFrag(path), LayeringWall) }

func runLayering(pass *Pass) error {
	self := pass.Pkg.Path()
	selfDet := detclockInScope(self)
	selfWall := layerWall(self)
	selfCmd := strings.HasPrefix(self, "armvirt/cmd/")

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			frag := layerFrag(path)

			// Rule 3: internal/analysis is the vet implementation.
			if (path == "armvirt/internal/analysis" || frag == "analysis") &&
				self != "armvirt/cmd/armvirt-vet" {
				pass.ReportRange(imp.Pos(), imp.End(),
					"package %s imports %s; internal/analysis is importable only by cmd/armvirt-vet",
					self, path)
				continue
			}

			if selfDet && layerWall(path) {
				// Rule 1: deterministic world must not see the wall tier.
				pass.ReportRange(imp.Pos(), imp.End(),
					"deterministic package %s imports wall-tier package %s; the engine must not depend on wall-clock code",
					self, path)
				continue
			}

			if selfWall && !selfCmd {
				// Rule 2: wall tier uses the blessed seams only.
				engineSide := detclockInScope(path) || fragIn(frag, layeringEngineInternal)
				if engineSide && !layeringSeams[frag] {
					pass.ReportRange(imp.Pos(), imp.End(),
						"wall-tier package %s imports engine package %s; go through a seam (bench, core, sim, telemetry) instead",
						self, path)
				}
			}
		}
	}
	return nil
}
