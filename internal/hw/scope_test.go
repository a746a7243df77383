package hw

import (
	"slices"
	"sync"
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

// checkScope asserts that every machine in ms registered its engine with
// stats iff wantStats and got a sampler from tele iff wantSampled, and
// that the collectors hold nothing else. A nil collector is not checked.
func checkScope(t *testing.T, ms []*Machine, stats *sim.StatsCollector, tele *telemetry.Collector, wantStats, wantSampled bool) {
	t.Helper()
	want := func(on bool) int {
		if on {
			return len(ms)
		}
		return 0
	}
	if stats != nil && len(stats.PerEngine()) != want(wantStats) {
		t.Errorf("stats collected %d engines, want %d", len(stats.PerEngine()), want(wantStats))
	}
	if n := len(tele.Samplers()); tele != nil && n != want(wantSampled) {
		t.Errorf("telemetry collected %d samplers, want %d", n, want(wantSampled))
	}
	for i, m := range ms {
		if (m.Tel != nil) != wantSampled || (m.Tel != nil && !slices.Contains(tele.Samplers(), m.Tel)) {
			t.Errorf("machine %d has sampler %p, want one from its own scope iff %v", i, m.Tel, wantSampled)
		}
	}
}

// TestRunScope: sim.CollectStats and telemetry.Collect each set one half
// of the run scope and keep the other when nested, in either order;
// sim.Inherit carries both halves onto pool workers, and an unbound
// parent leaves them unbound. A machine built in scope registers one
// engine and gets exactly one sampler; one built out of scope gets none.
func TestRunScope(t *testing.T) {
	var (
		mu    sync.Mutex
		ms    []*Machine
		stats *sim.StatsCollector
		tele  *telemetry.Collector
	)
	build := func() {
		m := New(Config{Arch: cpu.ARM, NCPU: 2, Cost: armCost()})
		mu.Lock()
		ms = append(ms, m)
		mu.Unlock()
	}
	// workers builds one machine on each of four goroutines that call
	// bind first, the worker-pool idiom of core.RunAll.
	workers := func(bind func() func()) {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer bind()()
				build()
			}()
		}
		wg.Wait()
	}
	withStats := func(fn func()) func() { return func() { stats = sim.CollectStats(fn) } }
	withTele := func(fn func()) func() { return func() { tele = telemetry.Collect(10, fn) } }
	unbound := sim.Inherit()
	cases := []struct {
		name                   string
		run                    func()
		wantStats, wantSampled bool
	}{
		{"unscoped", build, false, false},
		{"stats only", withStats(build), true, false},
		{"telemetry only", withTele(build), false, true},
		{"stats inside telemetry", withTele(withStats(build)), true, true},
		{"telemetry inside stats", withStats(withTele(build)), true, true},
		{"inherited by workers", withTele(withStats(func() { workers(sim.Inherit()) })), true, true},
		{"unbound parent", withTele(withStats(func() { workers(unbound) })), false, false},
		{"after the scope ends", func() { withTele(withStats(func() {}))(); build() }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, stats, tele = nil, nil, nil
			tc.run()
			checkScope(t, ms, stats, tele, tc.wantStats, tc.wantSampled)
		})
	}
}

// TestRunScopeIsolation: goroutines collecting at the same time never see
// each other's engines or samplers.
func TestRunScopeIsolation(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				var ms []*Machine
				var stats *sim.StatsCollector
				tele := telemetry.Collect(10, func() {
					stats = sim.CollectStats(func() {
						for range g {
							ms = append(ms, New(Config{Arch: cpu.ARM, NCPU: 2, Cost: armCost()}))
						}
					})
				})
				checkScope(t, ms, stats, tele, true, true)
			}
		}()
	}
	wg.Wait()
}
