// Stand-in engine API for the cross-package analyzers: a named type
// Engine (dispatch surface Go/GoAt/GoOn/At/After/SendTo plus the tracer
// hook), a named type Proc (the context forms Go/At/After/SendTo) and the
// goroutine-bound stats collector, in a package named sim —
// which is all partsafe and bindcheck key on, so fixtures exercise them
// without importing the real engine. No clocks, no randomness: this file
// must stay silent under detclock.
package sim

// Engine mimics the real event-driven engine's dispatch surface.
type Engine struct {
	now int64
}

// NewEngine registers with the calling goroutine's bound collector in the
// real package; here it only needs the name.
func NewEngine() *Engine { return &Engine{} }

func (e *Engine) Go(body func())                       {}
func (e *Engine) GoAt(at int64, body func())           {}
func (e *Engine) GoOn(part int, at int64, body func()) {}
func (e *Engine) At(at int64, fn func())               {}
func (e *Engine) After(d int64, fn func())             {}
func (e *Engine) SendTo(part int, at int64, fn func()) {}
func (e *Engine) SetProcTap(fn func(at int64))         {}
func (e *Engine) Run()                                 {}

// Proc mimics a simulated process and its context-form dispatch surface.
type Proc struct {
	part int
}

func (p *Proc) Go(body func())                       {}
func (p *Proc) At(at int64, fn func())               {}
func (p *Proc) After(d int64, fn func())             {}
func (p *Proc) SendTo(part int, at int64, fn func()) {}

// StatsCollector mimics the goroutine-bound stats collector.
type StatsCollector struct{ n int64 }

// Bind attaches the collector to the calling goroutine.
func (c *StatsCollector) Bind() func() { return func() {} }

// InheritStats captures the caller's binding; invoking the returned bind
// function attaches it to the invoking goroutine (the worker-pool idiom).
func InheritStats() func() func() {
	return func() func() { return func() {} }
}

// CollectStats binds a fresh collector to the calling goroutine.
func CollectStats() *StatsCollector { return &StatsCollector{} }
