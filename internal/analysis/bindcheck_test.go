package analysis

import "testing"

// TestBindcheckFixtures covers unbound engine creation (closure and
// named-function launches), the worker-pool bind idiom, deep binds
// through sim.CollectStats and telemetry.Collect, engine-free and dynamic
// launches, and the //armvirt:unbound waiver. The telemetry stub is in
// the fact base so telemetry.Collect's bind is seen through its body.
func TestBindcheckFixtures(t *testing.T) {
	runFixturesWith(t, Bindcheck, []string{"telemetry"}, "bindcheck")
}
