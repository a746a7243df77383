// Package bindcheck exercises the run-scope binding analyzer: a `go`
// statement whose goroutine reaches the stand-in sim.NewEngine must bind
// the run scope first. The worker-pool idiom, deep binds through
// sim.CollectStats and telemetry.Collect, engine-free goroutines, and
// //armvirt:unbound waivers stay silent.
package bindcheck

import (
	"sim"
	"telemetry"
)

// BadEngine spawns a goroutine that builds an engine with no bind: its
// stats silently vanish from the merged report.
func BadEngine() {
	go func() { // want `goroutine reaches sim.NewEngine without binding the run scope`
		e := sim.NewEngine()
		e.Run()
	}()
}

// BadNamed launches a named function; reachability crosses the call.
func BadNamed() {
	go buildAndRun() // want `goroutine reaches sim.NewEngine without binding the run scope`
}

func buildAndRun() {
	e := sim.NewEngine()
	e.Run()
}

// GoodWorker is the blessed worker-pool idiom: capture the bind before
// the go statement, attach first thing inside the goroutine.
func GoodWorker() {
	bind := sim.Inherit()
	go func() {
		detach := bind()
		defer detach()
		e := sim.NewEngine()
		e.Run()
	}()
}

// GoodDeep binds inside a helper: anywhere in the goroutine's reachable
// closure counts.
func GoodDeep() {
	go func() {
		boundRun()
	}()
}

func boundRun() {
	sim.CollectStats(func() {
		e := sim.NewEngine()
		e.Run()
	})
}

// GoodTelemetry binds through telemetry.Collect, whose body sets the
// telemetry half of the scope.
func GoodTelemetry() {
	go func() {
		telemetry.Collect(func() {
			e := sim.NewEngine()
			e.Run()
		})
	}()
}

// Plain goroutines that never touch engine code are not this analyzer's
// business.
func Plain(ch chan int) {
	go func() { ch <- 1 }()
}

// Dynamic launch targets (function values) are not statically
// resolvable; the analyzer stays conservative and silent.
func Dynamic(f func()) {
	go f()
}

// Waived runs intentionally unobserved.
func Waived() {
	//armvirt:unbound throwaway engine, stats discarded by design
	go func() {
		e := sim.NewEngine()
		e.Run()
	}()
}
