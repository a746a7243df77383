package sim

import (
	"reflect"
	"sync"
	"testing"
)

// runSmallSim drives a deterministic two-process simulation on a fresh
// engine and returns the engine.
func runSmallSim() *Engine {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
			q.Send(i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Recv(p)
			p.Sleep(3)
		}
	})
	e.Run()
	return e
}

func TestEngineStatsCounters(t *testing.T) {
	e := runSmallSim()
	s := e.Stats()
	if s.Engines != 1 {
		t.Errorf("Engines = %d, want 1", s.Engines)
	}
	if s.Events == 0 {
		t.Error("Events = 0, want > 0 after a run")
	}
	if s.ProcsSpawned != 2 {
		t.Errorf("ProcsSpawned = %d, want 2", s.ProcsSpawned)
	}
	if s.ProcSwitches == 0 {
		t.Error("ProcSwitches = 0, want > 0 (producer and consumer hand off)")
	}
	if s.HeapHighWater < 2 {
		t.Errorf("HeapHighWater = %d, want >= 2", s.HeapHighWater)
	}
	if s.Cycles != int64(e.Now()) {
		t.Errorf("Cycles = %d, want final clock %d", s.Cycles, e.Now())
	}
}

// TestEngineStatsDeterministic: two identical runs produce identical
// counters — EngineStats are part of the reproducible output surface.
func TestEngineStatsDeterministic(t *testing.T) {
	a := runSmallSim().Stats()
	b := runSmallSim().Stats()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats differ across identical runs:\n  %+v\n  %+v", a, b)
	}
}

func TestStatsCollectorCollects(t *testing.T) {
	c := CollectStats(func() {
		runSmallSim()
		runSmallSim()
	})
	per := c.PerEngine()
	if len(per) != 2 {
		t.Fatalf("collected %d engines, want 2", len(per))
	}
	if !reflect.DeepEqual(per[0], per[1]) {
		t.Errorf("identical runs collected different stats: %+v vs %+v", per[0], per[1])
	}
	total := c.Snapshot()
	if total.Engines != 2 || total.Events != per[0].Events*2 {
		t.Errorf("snapshot %+v does not sum per-engine stats %+v", total, per[0])
	}
	if total.HeapHighWater != per[0].HeapHighWater {
		t.Errorf("HeapHighWater = %d, want max %d, not sum", total.HeapHighWater, per[0].HeapHighWater)
	}
}

// TestCollectorScoping: engines created outside the collect region are
// not collected; a nested CollectStats shadows the outer one and restores
// it when it returns.
func TestCollectorScoping(t *testing.T) {
	runSmallSim() // unbound: collected nowhere
	var inner *StatsCollector
	outer := CollectStats(func() {
		runSmallSim()
		inner = CollectStats(func() { runSmallSim() }) // nested: shadows outer
		runSmallSim()
	})
	runSmallSim() // after the scope ends: collected nowhere

	if n := len(outer.PerEngine()); n != 2 {
		t.Errorf("outer collected %d engines, want 2", n)
	}
	if n := len(inner.PerEngine()); n != 1 {
		t.Errorf("inner collected %d engines, want 1", n)
	}
}

// runWorkers runs one small simulation on each of n goroutines that call
// bind at their top, the worker-pool idiom of core.RunAll.
func runWorkers(n int, bind func() func()) {
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer bind()()
			runSmallSim()
		}()
	}
	wg.Wait()
}

// TestInheritStatsPropagatesToWorkers: the worker-pool idiom carries the
// caller's stats collector onto spawned goroutines, and the telemetry
// half of the scope with it.
func TestInheritStatsPropagatesToWorkers(t *testing.T) {
	tele := new(int)
	var c *StatsCollector
	var seen []any
	var mu sync.Mutex
	WithTelemetry(tele, func() {
		c = CollectStats(func() {
			bind := Inherit()
			runWorkers(4, func() func() {
				detach := bind()
				mu.Lock()
				seen = append(seen, NewEngine().Telemetry())
				mu.Unlock()
				return detach
			})
		})
	})
	// Each worker built one probe engine and ran one small simulation.
	if n := len(c.PerEngine()); n != 8 {
		t.Errorf("collected %d engines from workers, want 8", n)
	}
	for i, got := range seen {
		if got != tele {
			t.Errorf("worker %d engine captured telemetry %v, want the parent's", i, got)
		}
	}
	c = CollectStats(func() { runWorkers(4, Inherit()) })
	total := c.Snapshot()
	one := runSmallSim().Stats()
	want := EngineStats{
		Engines: 4, Events: one.Events * 4, ProcSwitches: one.ProcSwitches * 4,
		ProcsSpawned: one.ProcsSpawned * 4, HeapHighWater: one.HeapHighWater,
		Cycles: one.Cycles * 4,
	}
	if !reflect.DeepEqual(total, want) {
		t.Errorf("snapshot across workers = %+v, want %+v", total, want)
	}
}

// TestInheritStatsNoBinding: inheriting with nothing bound leaves workers
// unbound, even when they run while the parent has since bound a scope.
func TestInheritStatsNoBinding(t *testing.T) {
	bind := Inherit()
	var tele any
	c := CollectStats(func() {
		WithTelemetry(new(int), func() {
			runWorkers(4, func() func() {
				detach := bind()
				if e := NewEngine(); e.Telemetry() != nil {
					tele = e.Telemetry()
				}
				return detach
			})
		})
	})
	if n := len(c.PerEngine()); n != 0 {
		t.Errorf("collected %d engines from workers of an unbound parent, want 0", n)
	}
	if tele != nil {
		t.Errorf("worker of an unbound parent captured telemetry %v", tele)
	}
}
