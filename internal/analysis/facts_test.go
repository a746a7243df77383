package analysis

import (
	"strings"
	"testing"
)

// loadFixtures loads fixture packages through one shared loader so the
// Module under test spans packages exactly as a real Run does.
func loadFixtures(t *testing.T, paths ...string) []*Package {
	t.Helper()
	l := newFixtureLoader(t)
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// TestModuleDepOrder pins that Module.Pkgs puts imports before
// importers regardless of input order.
func TestModuleDepOrder(t *testing.T) {
	pkgs := loadFixtures(t, "sim/partsafe", "sim") // deliberately reversed
	m := NewModule(pkgs)
	idx := map[string]int{}
	for i, p := range m.Pkgs {
		idx[p.ImportPath] = i
	}
	if idx["sim"] > idx["sim/partsafe"] {
		t.Errorf("dependency order wrong: sim at %d, sim/partsafe at %d", idx["sim"], idx["sim/partsafe"])
	}
}

// TestModuleFacts pins the per-function summaries the analyzers consume:
// call edges, dispatch roots, go sites, global writes, and the
// bind/create flags.
func TestModuleFacts(t *testing.T) {
	pkgs := loadFixtures(t, "sim", "telemetry", "sim/partsafe", "bindcheck")
	m := NewModule(pkgs)

	// Named functions fact under their types.Func full name.
	tick := m.Funcs[NodeID("sim/partsafe.tick")]
	if tick == nil {
		t.Fatal("no facts for sim/partsafe.tick")
	}
	if len(tick.GlobalWrites) != 1 || tick.GlobalWrites[0].Name != "partsafe.table" {
		t.Errorf("tick.GlobalWrites = %+v, want one write to partsafe.table", tick.GlobalWrites)
	}

	// Dispatch reachability: tick is handed to e.At, so it and the
	// closures passed to Go/SendTo/After are reachable; Host is not.
	reach := m.DispatchReachable()
	if !reach[NodeID("sim/partsafe.tick")] {
		t.Error("tick not dispatch-reachable despite being an e.At callback")
	}
	if !reach[NodeID("sim/partsafe.helper")] {
		t.Error("helper not dispatch-reachable despite dispatch closure -> helper call chain")
	}
	if reach[NodeID("sim/partsafe.Host")] {
		t.Error("Host is dispatch-reachable but is never handed to the engine")
	}

	// Go sites: BadNamed launches a resolvable named function.
	bad := m.Funcs[NodeID("bindcheck.BadNamed")]
	if bad == nil || len(bad.GoSites) != 1 {
		t.Fatalf("BadNamed facts = %+v, want exactly one go site", bad)
	}
	if bad.GoSites[0].Target != NodeID("bindcheck.buildAndRun") {
		t.Errorf("BadNamed go target = %q, want bindcheck.buildAndRun", bad.GoSites[0].Target)
	}

	// Dynamic launches have no target.
	dyn := m.Funcs[NodeID("bindcheck.Dynamic")]
	if dyn == nil || len(dyn.GoSites) != 1 || dyn.GoSites[0].Target != "" {
		t.Errorf("Dynamic facts = %+v, want one go site with empty target", dyn)
	}

	// Bind/create flags on named functions.
	br := m.Funcs[NodeID("bindcheck.buildAndRun")]
	if br == nil || !br.CreatesEngine || br.BindsScope {
		t.Errorf("buildAndRun facts = %+v, want CreatesEngine and no BindsScope", br)
	}
	bound := m.Funcs[NodeID("bindcheck.boundRun")]
	if bound == nil || !bound.BindsScope {
		t.Errorf("boundRun facts = %+v, want BindsScope", bound)
	}
	collect := m.Funcs[NodeID("telemetry.Collect")]
	if collect == nil || !collect.BindsScope {
		t.Errorf("telemetry.Collect facts = %+v, want BindsScope through sim.WithTelemetry", collect)
	}

	// Function literals fact under position-derived IDs contained by
	// their encloser.
	run := m.Funcs[NodeID("sim/partsafe.Run")]
	if run == nil || len(run.Contains) < 2 {
		t.Fatalf("Run facts = %+v, want at least two contained literals", run)
	}
	for _, id := range run.Contains {
		if !strings.HasPrefix(string(id), "func@") {
			t.Errorf("contained literal ID %q does not use the func@ scheme", id)
		}
	}
	if len(run.DispatchArgs) < 3 {
		t.Errorf("Run.DispatchArgs = %v, want the two closures and tick", run.DispatchArgs)
	}
}
