package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/cluster"
	"armvirt/internal/core"
	"armvirt/internal/hyp"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/runlog"
	"armvirt/internal/serve"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
	"armvirt/internal/workload"
)

// modelOps are the Table II microbenchmarks the model layer is timed on.
var modelOps = []struct {
	name string
	run  func(hyp.Hypervisor) micro.Result
}{
	{"hypercall", micro.Hypercall},
	{"gictrap", micro.InterruptControllerTrap},
	{"vipi", micro.VirtualIPI},
	{"virqcomplete", micro.VirtualIRQCompletion},
	{"vmswitch", micro.VMSwitch},
	{"ioout", micro.IOLatencyOut},
	{"ioin", micro.IOLatencyIn},
}

// modelPlatforms are the two ARM hypervisors the model layer is timed on.
var modelPlatforms = []struct {
	slug string
	new  func() hyp.Hypervisor
}{
	{"kvm_arm", func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() }},
	{"xen_arm", func() hyp.Hypervisor { return platform.NewXenARM().Hyp() }},
}

// Repetitions behind each per-layer median.
const (
	layerReps  = 15     // calls of a model op, renders, disk-tier opens
	fleetReps  = 5      // fleet runs per observability mode
	probeReps  = 400    // timed calls of a cheap serve/cluster/runlog function
	engineOps  = 100000 // events, sleeps or messages per engine probe
	sendOps    = 2000   // cross-partition messages per SendTo probe; each costs a window
	innerLoops = 1000   // calls per timed batch of a nanosecond-scale function
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeEach calls fn n times and returns each call's wall time in
// microseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		fn(i)
		out[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return out
}

// traceRun is every workload's traced run. It walks a fixed tour through
// every layer with spans around each call (study pass, fleet modes, the
// model's microbenchmarks, a serve cycle), derives per-layer self time
// from those spans, times each layer's public functions directly, and
// spends the rest of the measuring time alternating the workload's own
// operation traced and untraced: the difference of their medians is the
// tracing overhead. The spans are written as Chrome trace-event JSON.
func traceRun(cfg config, r *report, op func(tr *tracer)) {
	start := time.Now()
	tr := newTracer()
	ref := tour(cfg, r, tr)
	for l, v := range tr.selfTimes() {
		r.add("self."+l+"_ms", v, "ms", 1)
	}
	probeSim(r)
	probeServe(r)
	probeStorage(r, ref)

	var on, off []float64
	end := cfg.deadline(start)
	for n := 0; n < 3 || time.Now().Before(end); n++ {
		// Alternate which side goes first, so neither always runs
		// right after the other.
		traced := func() { on = append(on, 1e3*gcTime(func() { op(tr) })) }
		plain := func() { off = append(off, 1e3*gcTime(func() { op(nil) })) }
		if n%2 == 0 {
			traced()
			plain()
		} else {
			plain()
			traced()
		}
	}
	r.add("trace.overhead_ms", median(on)-median(off), "ms", len(on))
	path := filepath.Join(outDir, "trace-"+cfg.workload+".json")
	if err := tr.writeChrome(path); err != nil {
		r.fail("write chrome trace: %v", err)
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("chrome trace: %s (%d spans)", path, len(tr.spans)))
}

// tour makes the traced run's fixed pass through every layer. It returns
// the serve reference bytes its study pass rendered.
func tour(cfg config, r *report, tr *tracer) map[string][]byte {
	// exp, render, sim: one -j 1 study pass, experiment by experiment.
	var reps []core.Report
	var costs []expCost
	col := sim.CollectStats(func() { reps, _, costs = tracedPass(tr) })
	r.attempted += len(reps)
	r.failed += countFailed(reps)
	checkStudy(r, reps)
	var wallMs float64
	for i, rep := range reps {
		r.add("exp."+rep.ID+"_ms", costs[i].ms, "ms", 1)
		r.add("exp."+rep.ID+"_alloc_mb", costs[i].allocMB, "MB", 1)
		wallMs += costs[i].ms
	}
	ev := col.Snapshot().Events
	r.add("sim.events.study", float64(ev), "count", 1)
	r.add("sim.ns_per_event.study", 1e6*wallMs/float64(ev), "ns", 1)

	var js, txt []float64
	for i := 0; i < layerReps; i++ {
		tr.newGroup()
		js = append(js, 1e3*gcTime(func() { tr.wrap("render", "render.json", func() { bench.WriteJSON(io.Discard, reps) }) }))
		txt = append(txt, 1e3*gcTime(func() { tr.wrap("render", "render.text", func() { renderText(reps) }) }))
	}
	r.addMedian("render.json_ms", js, "ms")
	r.addMedian("render.text_ms", txt, "ms")

	// sim: the fleet on the serial engine and at -par 1, with engine stats.
	modes := fleetModes(cfg.nproc)
	var first workload.FleetResult
	for _, fm := range modes[:2] {
		var res workload.FleetResult
		var d time.Duration
		col := sim.CollectStats(func() {
			t := time.Now()
			res = runFleetMode(tr, fm)
			d = time.Since(t)
		})
		if fm.name == "fleet.serial" {
			first = res
		}
		r.attempted++
		checkFleet(r, "tour "+fm.name, res, first)
		st := col.Snapshot()
		if fm.name == "fleet.serial" {
			r.add("sim.events.fleet", float64(st.Events), "count", 1)
			r.add("sim.ns_per_event.fleet_serial", float64(d)/float64(st.Events), "ns", 1)
		} else {
			r.add("sim.ns_per_event.fleet_par1", float64(d)/float64(st.Events), "ns", 1)
			r.add("sim.windows.fleet", float64(st.Windows), "count", 1)
			r.add("sim.outbox_msgs.fleet", float64(st.OutboxMsgs), "count", 1)
			r.add("sim.window_us", float64(d)/float64(time.Microsecond)/float64(st.Windows), "us", 1)
		}
	}

	// obs: the -par 1 fleet bare, with PD1's recorder, and sampled.
	var bare, recorded, sampled []float64
	for i := 0; i < fleetReps; i++ {
		tr.newGroup()
		bare = append(bare, 1e3*gcTime(func() { runFleetMode(tr, modes[1]) }))
		recorded = append(recorded, 1e3*gcTime(func() { tr.wrap("obs", "obs.recorded", func() { bench.RunFleet() }) }))
		sampled = append(sampled, 1e3*gcTime(func() {
			tr.wrap("obs", "obs.sampled", func() {
				telemetry.Collect(0, func() { workload.Fleet(modes[1].build(), workload.FleetParams{}) })
			})
		}))
		r.attempted += 3
	}
	r.addMedian("obs.fleet_bare_ms", bare, "ms")
	r.addMedian("obs.fleet_recorded_ms", recorded, "ms")
	r.addMedian("obs.fleet_sampled_ms", sampled, "ms")

	// model: each Table II microbenchmark on each ARM hypervisor, on a
	// fresh platform per call.
	for _, o := range modelOps {
		for _, pl := range modelPlatforms {
			xs := make([]float64, layerReps)
			for i := range xs {
				h := pl.new()
				tr.newGroup()
				t := time.Now()
				tr.wrap("model", "model."+o.name+"."+pl.slug, func() { o.run(h) })
				xs[i] = float64(time.Since(t)) / float64(time.Microsecond)
				r.attempted++
			}
			r.addMedian("model."+o.name+"."+pl.slug+"_us", xs, "us")
		}
	}

	// serve, cluster, runlog: one cold-warm-restart cycle; its warm rounds
	// give the warm tail enough samples for a p99.
	ref := refFrom(reps)
	ss := &serveSession{r: r, tr: tr, c: newClient(), rng: rand.New(rand.NewSource(cfg.seed)), keys: serveKeys(), ref: ref}
	defer ss.c.t.CloseIdleConnections()
	sc, err := ss.cycle()
	if err != nil {
		r.fail("tour serve cycle: %v", err)
		return ref
	}
	r.add("serve.hits", sc.counts["armvirt_cache_hits_total"], "count", 1)
	r.add("serve.misses", sc.counts["armvirt_cache_misses_total"], "count", 1)
	r.add("serve.disk_hits", sc.counts["armvirt_disk_cache_hits_total"], "count", 1)
	r.add("serve.engine_runs", sc.counts["armvirt_engine_runs_total"], "count", 1)
	r.add("serve.warm_rps", float64(len(sc.warm))/sc.warmWall, "1/s", len(sc.warm))
	p, ok := tailPercentile(len(sc.warm))
	if !ok || p < 99 {
		r.fail("tour: %d warm samples give no p99 with ten beyond it", len(sc.warm))
	}
	r.add("serve.warm_p99_us", 1e6*percentile(sc.warm, 99), "us", len(sc.warm))
	r.add("runlog.ledger_mb", sc.ledgerMB, "MB", 1)
	return ref
}

// probeSim times the engine's primitives on engines built for the probe.
func probeSim(r *report) {
	const n = engineOps
	// perOp times building the engine (scheduling its events or spawning
	// its procs) and running it, per operation.
	perOp := func(build func() *sim.Engine, ops int) []float64 {
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = 1e9 * gcTime(func() { build().Run() }) / float64(ops)
		}
		return xs
	}
	r.addMedian("sim.dispatch_ns", perOp(func() *sim.Engine {
		e := sim.NewEngine()
		for i := 0; i < n; i++ {
			e.At(sim.Time(i), func() {})
		}
		return e
	}, n), "ns")
	r.addMedian("sim.switch_ns", perOp(func() *sim.Engine {
		e := sim.NewEngine()
		for k := 0; k < 2; k++ {
			e.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					p.Sleep(1)
				}
			})
		}
		return e
	}, n), "ns")
	r.addMedian("sim.queue_ns", perOp(func() *sim.Engine {
		e := sim.NewEngine()
		q := sim.NewQueue[int](e, "probe")
		e.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Send(i)
				p.Yield()
			}
		})
		e.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Recv(p)
			}
		})
		return e
	}, n), "ns")
	r.addMedian("sim.sendto_ns", perOp(func() *sim.Engine {
		const hop = 10
		e := sim.NewEngine()
		src, dst := e.AddPartition("src"), e.AddPartition("dst")
		e.SetLookahead(hop)
		e.SetWorkers(1)
		e.GoOn(src, "sender", func(p *sim.Proc) {
			for i := 0; i < sendOps; i++ {
				e.SendTo(dst, hop, func() {})
				p.Sleep(hop)
			}
		})
		return e
	}, sendOps), "ns")
}

// probeServe times the serve tier's in-process pieces: a warm handler
// call without TCP, a resident cache hit, and admission of a no-op.
func probeServe(r *report) {
	srv := serve.New(serve.Config{})
	const path = "/v1/experiments/T1?format=json"
	call := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	call()
	hit := timeEach(probeReps, func(int) {
		if w := call(); w.Code != 200 || w.Header().Get("X-Cache") != "hit" {
			r.fail("in-process %s: status %d, X-Cache %q", path, w.Code, w.Header().Get("X-Cache"))
		}
	})
	r.attempted += probeReps + 1
	r.addMedian("serve.handler_hit_us", hit, "us")
	srv.Drain()

	ctx := context.Background()
	val := func() ([]byte, error) { return []byte("v"), nil }
	c := serve.NewCache(1 << 20)
	c.GetOrCompute(ctx, "k", val)
	r.addMedian("serve.cache_hit_ns", batchNs(func() { c.GetOrCompute(ctx, "k", val) }), "ns")
	a := serve.NewAdmission(1, 0)
	r.addMedian("serve.admission_ns", batchNs(func() { a.Do(ctx, val) }), "ns")
}

// batchNs times batches of innerLoops calls and returns ns per call, one
// sample per batch.
func batchNs(fn func()) []float64 {
	xs := timeEach(probeReps/10, func(int) {
		for i := 0; i < innerLoops; i++ {
			fn()
		}
	})
	return scale(xs, 1e3/innerLoops)
}

// probeStorage times the disk tier's Put, Get and Open and the ledger's
// Append and Recent, on files in a directory of their own.
func probeStorage(r *report, ref map[string][]byte) {
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	var vals [][]byte
	for _, k := range serveKeys() {
		vals = append(vals, ref[k])
	}
	cdir := filepath.Join(dir, "cache")
	d, err := cluster.OpenDisk(cdir, 0)
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	key := func(i int) string { return fmt.Sprintf("probe-%d", i) }
	n := 3 * len(vals)
	r.addMedian("cluster.disk_put_us", timeEach(n, func(i int) { d.Put(key(i), vals[i%len(vals)]) }), "us")
	r.addMedian("cluster.disk_get_us", timeEach(n, func(i int) {
		if _, ok := d.Get(key(i)); !ok {
			r.fail("disk tier lost %s", key(i))
		}
	}), "us")
	r.addMedian("cluster.open_ms", scale(timeEach(layerReps, func(int) {
		if _, err := cluster.OpenDisk(cdir, 0); err != nil {
			r.fail("probe: %v", err)
		}
	}), 1e-3), "ms")
	r.attempted += 2*n + layerReps

	lg, err := runlog.Open(filepath.Join(dir, "ledger.jsonl"), 0, 0)
	if err != nil {
		r.fail("probe: %v", err)
		return
	}
	defer lg.Close()
	r.addMedian("runlog.append_us", timeEach(probeReps, func(int) {
		t := lg.Begin("experiment")
		t.SetTarget("T2", "json")
		sp := t.Start("engine")
		sp.End()
		lg.Append(t.Finish(200))
	}), "us")
	r.addMedian("runlog.recent_us", timeEach(probeReps, func(int) {
		if got := lg.Recent(runlog.Query{Limit: 20}); len(got) != 20 {
			r.fail("ledger Recent: %d entries, want 20", len(got))
		}
	}), "us")
	r.attempted += 2 * probeReps
}
