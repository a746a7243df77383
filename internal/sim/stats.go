// Engine work accounting. Every engine counts the work it dispatches —
// events popped from the heap, switches between processes,
// processes spawned, the event-heap high-water mark, and the final
// virtual clock. All of it is driven by the deterministic event sequence,
// so a run's EngineStats are as reproducible as its tables: identical on
// every execution, at any parallelism level.
//
// StatsCollector gathers those counters across all the engines one
// logical operation creates (an experiment builds one engine per platform
// plus workload simulators). Attachment is by run scope: a goroutine
// carries one scope holding the stats collector and the telemetry
// collector of the run it works for. CollectStats and telemetry.Collect
// each set their half of the calling goroutine's scope for the duration
// of a function, and NewEngine — the only reader — registers the engine
// with the stats half and keeps the telemetry half for the machine built
// on it. Worker pools propagate the whole scope with Inherit, so
// collection survives the parallel runners (core.RunAll,
// bench.RunPhaseBreakdowns) unchanged.
package sim

import (
	"runtime"
	"sync"
)

// EngineStats is a deterministic snapshot of engine work counters. For a
// single engine, Engines is 1 and HeapHighWater is that engine's peak
// event-queue depth; merged snapshots sum everything except HeapHighWater,
// which takes the maximum across engines.
type EngineStats struct {
	// Engines is the number of engines folded into this snapshot.
	Engines int64 `json:"engines"`
	// Events counts events dispatched by the engine loop (callbacks and
	// process wakeups, including stale ones).
	Events int64 `json:"events"`
	// ProcSwitches counts resumptions of a process other than the one
	// its partition's dispatcher last resumed (self-wakeups cost no
	// switch and are not counted; see Engine).
	ProcSwitches int64 `json:"proc_switches"`
	// ProcsSpawned counts processes created with Go/GoAt.
	ProcsSpawned int64 `json:"procs_spawned"`
	// HeapHighWater is the peak event-heap depth observed.
	HeapHighWater int64 `json:"heap_high_water"`
	// Cycles is the engine's final virtual clock — total simulated cycles.
	Cycles int64 `json:"cycles"`

	// PDES health counters, nonzero only for multi-partition engines:
	// Windows counts per-partition quantum-window participations,
	// BarrierStallCycles the simulated cycles partitions lagged the window
	// bound at barriers, OutboxMsgs the cross-partition messages buffered.
	// All are functions of event timestamps alone, never of host time.
	Windows            int64 `json:"windows,omitempty"`
	BarrierStallCycles int64 `json:"barrier_stall_cycles,omitempty"`
	OutboxMsgs         int64 `json:"outbox_msgs,omitempty"`
	// Parts breaks the health counters down per partition. Only
	// single-engine snapshots keep the breakdown; merging two engines
	// drops it (there is no meaningful cross-engine partition identity),
	// which keeps Merge order-independent.
	Parts []PartStats `json:"parts,omitempty"`
}

// PartStats is one partition's slice of an engine's health counters.
type PartStats struct {
	// Part is the partition id; Name its diagnostic name.
	Part int    `json:"part"`
	Name string `json:"name,omitempty"`
	// Events is the events the partition dispatched; Windows the quantum
	// windows it participated in; StallCycles the cycles its clock lagged
	// the window bound at barriers; OutboxMsgs the messages it sent to
	// other partitions.
	Events      int64 `json:"events"`
	Windows     int64 `json:"windows"`
	StallCycles int64 `json:"barrier_stall_cycles"`
	OutboxMsgs  int64 `json:"outbox_msgs"`
}

// Merge folds o into s: counters sum, HeapHighWater takes the maximum.
// The per-partition breakdown survives only while the fold holds a single
// engine; folding a second engine in clears it, in either order.
func (s *EngineStats) Merge(o EngineStats) {
	if s.Engines == 0 {
		s.Parts = o.Parts
	} else if o.Engines > 0 {
		s.Parts = nil
	}
	s.Engines += o.Engines
	s.Events += o.Events
	s.ProcSwitches += o.ProcSwitches
	s.ProcsSpawned += o.ProcsSpawned
	if o.HeapHighWater > s.HeapHighWater {
		s.HeapHighWater = o.HeapHighWater
	}
	s.Cycles += o.Cycles
	s.Windows += o.Windows
	s.BarrierStallCycles += o.BarrierStallCycles
	s.OutboxMsgs += o.OutboxMsgs
}

// Stats returns the engine's work counters, folded across its partitions:
// events, switches, and spawns sum; HeapHighWater is the deepest partition
// heap; Cycles is the furthest partition clock. Every term is driven by
// the deterministic event sequence, so the snapshot is identical on every
// run. Call it only after the engine has gone idle (Run returned); reading
// mid-run from another goroutine is a data race.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Engines: 1}
	for _, s := range e.parts {
		st.Events += s.statEvents
		st.ProcSwitches += s.statSwitches
		st.ProcsSpawned += s.statSpawned
		if int64(s.statHeapHW) > st.HeapHighWater {
			st.HeapHighWater = int64(s.statHeapHW)
		}
		if int64(s.now) > st.Cycles {
			st.Cycles = int64(s.now)
		}
	}
	if len(e.parts) > 1 {
		st.Parts = make([]PartStats, len(e.parts))
		for i, s := range e.parts {
			st.Windows += s.statWindows
			st.BarrierStallCycles += s.statStall
			st.OutboxMsgs += s.statMsgs
			st.Parts[i] = PartStats{
				Part: int(s.id), Name: s.name,
				Events: s.statEvents, Windows: s.statWindows,
				StallCycles: s.statStall, OutboxMsgs: s.statMsgs,
			}
		}
	}
	return st
}

// StatsCollector accumulates the engines created inside its run scope.
// Safe for concurrent attachment; snapshot only after the collected
// engines have quiesced.
type StatsCollector struct {
	mu      sync.Mutex
	engines []*Engine
}

func (c *StatsCollector) attach(e *Engine) {
	c.mu.Lock()
	c.engines = append(c.engines, e)
	c.mu.Unlock()
}

// Snapshot merges the stats of every collected engine. HeapHighWater is
// the maximum across engines; everything else sums. The result is
// independent of engine-creation order, so it is byte-identical across
// parallelism levels of the runners that propagate the scope.
func (c *StatsCollector) Snapshot() EngineStats {
	var total EngineStats
	for _, s := range c.PerEngine() {
		total.Merge(s)
	}
	return total
}

// PerEngine returns each collected engine's stats in creation order.
// Creation order is deterministic for serial runs; under a parallel
// runner only the multiset (and therefore Snapshot) is stable.
func (c *StatsCollector) PerEngine() []EngineStats {
	c.mu.Lock()
	engines := make([]*Engine, len(c.engines))
	copy(engines, c.engines)
	c.mu.Unlock()
	out := make([]EngineStats, len(engines))
	for i, e := range engines {
		out[i] = e.Stats()
	}
	return out
}

// scope is a goroutine's run scope: the stats collector its engines
// register with, and the telemetry collector its machines sample into,
// held opaque because telemetry imports sim. Either half may be nil.
type scope struct {
	stats *StatsCollector
	tele  any
}

// scopes maps goroutine id -> the run scope bound to it. Bindings are
// strictly nested (each bind restores the previous scope on detach), so
// the map holds one entry per goroutine currently inside a bound region.
var scopes = struct {
	mu sync.Mutex
	m  map[uint64]scope
}{m: make(map[uint64]scope)}

// scopeOf returns the scope bound to goroutine g (zero if none).
func scopeOf(g uint64) scope {
	scopes.mu.Lock()
	s := scopes.m[g]
	scopes.mu.Unlock()
	return s
}

// bindScope binds s to goroutine g until the returned detach restores the
// previous scope.
func bindScope(g uint64, s scope) (detach func()) {
	scopes.mu.Lock()
	prev, hadPrev := scopes.m[g]
	scopes.m[g] = s
	scopes.mu.Unlock()
	return func() {
		scopes.mu.Lock()
		if hadPrev {
			scopes.m[g] = prev
		} else {
			delete(scopes.m, g)
		}
		scopes.mu.Unlock()
	}
}

// within runs fn with the calling goroutine's scope changed by edit; the
// half edit leaves alone keeps its current value.
func within(edit func(*scope), fn func()) {
	g := goid()
	s := scopeOf(g)
	edit(&s)
	defer bindScope(g, s)()
	fn()
}

// goid returns the calling goroutine's id, parsed from the runtime.Stack
// header ("goroutine N [...]"). The id never reaches simulation output —
// it is purely a registry key — so determinism is unaffected.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Inherit captures the calling goroutine's run scope, both halves, and
// returns a bind function for a spawned worker goroutine to call at its
// top; bind returns the worker's detach. With nothing bound, the worker
// stays unbound. Worker pools use this so engines and machines built on
// their workers are still collected by the spawning request:
//
//	bind := sim.Inherit()
//	go func() {
//		detach := bind()
//		defer detach()
//		...
//	}()
func Inherit() (bind func() (detach func())) {
	s := scopeOf(goid())
	return func() func() { return bindScope(goid(), s) }
}

// CollectStats runs fn with a fresh stats collector in the calling
// goroutine's run scope and returns the collector. Every engine fn
// creates — directly or on worker goroutines that propagate the scope
// with Inherit — is collected. A CollectStats nested inside another
// shadows it for its duration; the telemetry half of the scope is kept.
func CollectStats(fn func()) *StatsCollector {
	c := &StatsCollector{}
	within(func(s *scope) { s.stats = c }, fn)
	return c
}

// WithTelemetry runs fn with t as the telemetry half of the calling
// goroutine's run scope, keeping the stats half. It is telemetry.Collect's
// hook into the scope; sim never looks inside t.
func WithTelemetry(t any, fn func()) {
	within(func(s *scope) { s.tele = t }, fn)
}
