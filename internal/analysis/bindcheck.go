// bindcheck: a goroutine that builds an engine must bind the run scope
// first.
//
// A run's sim.StatsCollector and telemetry.Collector travel in one run
// scope attached to goroutines, not to engines: sim.NewEngine reads the
// *calling goroutine's* scope, registering the engine for stats and
// keeping the telemetry collector for the machine built on it. The
// worker-pool idiom (DESIGN.md §10, §12) is therefore
//
//	bind := sim.Inherit()
//	go func() {
//	        detach := bind()
//	        defer detach()
//	        ... sim.NewEngine() ...
//	}()
//
// Forgetting the bind() does not fail: the engine simply registers with
// no collector and its EngineStats and series vanish from the merged
// report — the silently-wrong class of bug that once took a debugging
// session to find. bindcheck makes it a compile-time finding: for every
// `go` statement whose launched function is statically resolvable, it
// walks the module call graph from the launched body; if anything
// reachable calls sim.NewEngine and nothing reachable binds the scope
// (the Inherit bind, sim.CollectStats, or sim.WithTelemetry, which
// telemetry.Collect wraps), the launch site is reported.
//
// The check is launch-site scoped on purpose: binds on the spawning
// goroutine do not carry over (that is the bug), so only code reachable
// from the launched function counts. Goroutines the runtime spawns
// (http handlers) are invisible here — their entry points bind via
// telemetry.Collect/sim.CollectStats at the handler seam, which this
// analyzer sees when those handlers are themselves launched by a `go`
// in the module.
//
// Escape: `//armvirt:unbound` on the `go` statement's line (or the line
// above) for launches that intentionally run unobserved.
package analysis

// Bindcheck is the goroutine run-scope binding analyzer.
var Bindcheck = &Analyzer{
	Name: "bindcheck",
	Doc: "a `go` statement whose goroutine reaches sim.NewEngine must bind the run scope first " +
		"(sim.Inherit; escape: //armvirt:unbound)",
	Run: runBindcheck,
}

func runBindcheck(pass *Pass) error {
	suppress := directiveLines(pass.Fset, pass.Files, "unbound")
	for _, id := range pass.Module.FuncsOf(pass.Pkg.Path()) {
		ff := pass.Module.Funcs[id]
		for _, site := range ff.GoSites {
			if site.Target == "" {
				continue // dynamic function value: not statically resolvable
			}
			if suppressedAt(suppress, pass.Fset.Position(site.Pos)) {
				continue
			}
			var createsEngine, binds bool
			for node := range pass.Module.Reach(site.Target) {
				if tf, ok := pass.Module.Funcs[node]; ok {
					createsEngine = createsEngine || tf.CreatesEngine
					binds = binds || tf.BindsScope
				}
			}
			if createsEngine && !binds {
				pass.ReportRange(site.Pos, site.End,
					"goroutine reaches sim.NewEngine without binding the run scope; "+
						"capture bind := sim.Inherit() before the go statement and call bind() first in the goroutine (escape: //armvirt:unbound)")
			}
		}
	}
	return nil
}
