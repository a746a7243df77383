package analysis

import "testing"

// TestBindcheckFixtures covers unbound engine creation (closure and
// named-function launches), the worker-pool bind idiom, deep binds
// through sim.CollectStats and telemetry.Collect, engine-free and dynamic
// launches, and the //armvirt:unbound waiver. Only the fixture itself is
// in the fact base, so telemetry.Collect counts as a bind without its
// body being loaded.
func TestBindcheckFixtures(t *testing.T) {
	runFixtures(t, Bindcheck, "bindcheck")
}
