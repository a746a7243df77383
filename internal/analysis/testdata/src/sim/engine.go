// Stand-in engine API for the cross-package analyzers: a named type
// Engine (dispatch surface Go/GoOn/At/After/SendTo plus the tracer
// hook), a named type Proc (its SendTo) and the
// run-scope entry points, in a package named sim —
// which is all partsafe and bindcheck key on, so fixtures exercise them
// without importing the real engine. No clocks, no randomness: this file
// must stay silent under detclock.
package sim

// Engine mimics the real event-driven engine's dispatch surface.
type Engine struct {
	now int64
}

// NewEngine reads the calling goroutine's run scope in the real package;
// here it only needs the name.
func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Go(body func())                       {}
func (e *Engine) GoOn(part int, at int64, body func()) {}
func (e *Engine) At(at int64, fn func())               {}
func (e *Engine) After(d int64, fn func())             {}
func (e *Engine) SendTo(part int, at int64, fn func()) {}
func (e *Engine) SetProcTap(fn func(at int64))         {}
func (e *Engine) Run()                                 {}

// Proc mimics a simulated process and its dispatch surface.
type Proc struct {
	part int
}

func (p *Proc) SendTo(part int, at int64, fn func()) {}

// StatsCollector mimics the run-scoped stats collector.
type StatsCollector struct{ n int64 }

// Inherit captures the caller's run scope; invoking the returned bind
// function attaches it to the invoking goroutine (the worker-pool idiom).
func Inherit() func() func() {
	return func() func() { return func() {} }
}

// CollectStats runs fn with a fresh collector in the calling goroutine's
// run scope.
func CollectStats(fn func()) *StatsCollector { fn(); return &StatsCollector{} }

// WithTelemetry runs fn with t as the telemetry half of the run scope.
func WithTelemetry(t any, fn func()) { fn() }
