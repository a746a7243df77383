// Stand-in run-scoped telemetry API for bindcheck: Collect sets the
// telemetry half of sim's run scope through sim.WithTelemetry. The
// analyzer counts a call to Collect as a bind by name, and TestModuleFacts
// checks it also sees the bind when it walks Collect's body. Kept free of
// Sampler methods so the nilrecorder expectations in telemetry.go are
// untouched.
package telemetry

import "sim"

// Collector mimics the run-scoped series collector.
type Collector struct{ n int64 }

// Collect runs fn with a fresh collector in the calling goroutine's scope.
func Collect(fn func()) *Collector {
	c := &Collector{}
	sim.WithTelemetry(c, fn)
	return c
}
