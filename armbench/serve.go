package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/cluster"
	"armvirt/internal/core"
	"armvirt/internal/runlog"
	"armvirt/internal/serve"
)

// The warm mix, per round: every key warmKeyRepeats times, plus fixed
// numbers of /v1/runs queries, lagged /v1/runs/{id} lookups and /metrics
// reads, in a seeded shuffle.
const (
	warmKeyRepeats = 12
	warmRuns       = 24
	warmLookups    = 24
	warmMetrics    = 16
)

// serveKeys lists every experiment key the serve workload asks for: each
// registry ID in json and in text.
func serveKeys() []string {
	var keys []string
	for _, id := range studyIDs {
		for _, f := range []string{"json", "text"} {
			keys = append(keys, "/v1/experiments/"+id+"?format="+f)
		}
	}
	return keys
}

// serveReference computes every key's expected bytes in-process, the way
// armvirt-report -only <id> [-json] would: core.RunOne, then
// bench.WriteJSON of the one report, or its rendered text.
func serveReference() map[string][]byte {
	var reps []core.Report
	for _, e := range core.Experiments() {
		reps = append(reps, core.RunOne(e))
	}
	return refFrom(reps)
}

// refFrom maps every key to the bytes the reports render to.
func refFrom(reps []core.Report) map[string][]byte {
	ref := make(map[string][]byte)
	for _, rep := range reps {
		var buf bytes.Buffer
		bench.WriteJSON(&buf, []core.Report{rep})
		ref["/v1/experiments/"+rep.ID+"?format=json"] = buf.Bytes()
		if rep.Result != nil {
			ref["/v1/experiments/"+rep.ID+"?format=text"] = []byte(rep.Result.Render())
		}
	}
	return ref
}

// server is one armvirt-serve instance — disk tier and file-backed ledger
// under dir — behind a loopback listener.
type server struct {
	srv  *serve.Server
	lg   *runlog.Ledger
	disk *cluster.DiskCache
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer opens the disk tier and ledger under dir and starts serving.
func startServer(tr *tracer, dir string) (*server, error) {
	s := &server{done: make(chan struct{})}
	var err error
	tr.wrap("cluster", "cluster.open", func() { s.disk, err = cluster.OpenDisk(filepath.Join(dir, "cache"), 0) })
	if err != nil {
		return nil, err
	}
	tr.wrap("runlog", "runlog.open", func() { s.lg, err = runlog.Open(filepath.Join(dir, "ledger.jsonl"), 0, 0) })
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.lg.Close()
		return nil, err
	}
	tr.wrap("serve", "serve.new", func() { s.srv = serve.New(serve.Config{Disk: s.disk, Ledger: s.lg}) })
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine, drains
// admitted runs and closes the ledger.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Drain()
	if cerr := s.lg.Close(); err == nil {
		err = cerr
	}
	return err
}

// response is one answered request.
type response struct {
	status int
	cache  string // X-Cache
	run    string // X-Armvirt-Run
	body   []byte
	dur    float64 // seconds, request sent to body read
}

// client is the workload's one closed-loop client: a single keep-alive
// connection, the next request sent only after the previous answer.
type client struct {
	t  *http.Transport
	hc *http.Client
}

func newClient() *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{t: t, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}}
}

func (c *client) get(tr *tracer, base, path string) (response, error) {
	tr.newGroup()
	h := tr.begin("serve", "GET "+path)
	defer tr.end(h)
	t := time.Now()
	resp, err := c.hc.Get(base + path)
	if err != nil {
		return response{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Cache"),
		run:    resp.Header.Get("X-Armvirt-Run"),
		body:   body,
		dur:    time.Since(t).Seconds(),
	}, nil
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(body []byte, name string) (float64, bool) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// serveSession drives one server lifetime after another through the
// workload's phases and checks every answer.
type serveSession struct {
	r    *report
	tr   *tracer
	c    *client
	rng  *rand.Rand
	keys []string
	ref  map[string][]byte
	// lastRun is the run ID of the previous answer, which the next
	// /v1/runs/{id} lookup asks for (see README, "Lagged run lookups").
	lastRun string
}

// do sends one request and counts it; a transport error or a status
// other than 200 is a failed operation.
func (ss *serveSession) do(base, path string) (response, bool) {
	ss.r.attempted++
	resp, err := ss.c.get(ss.tr, base, path)
	if err != nil {
		ss.r.failed++
		ss.r.fail("GET %s: %v", path, err)
		return resp, false
	}
	if resp.status != http.StatusOK {
		ss.r.failed++
		ss.r.fail("GET %s: status %d: %s", path, resp.status, bytes.TrimSpace(resp.body))
		return resp, false
	}
	ss.lastRun = resp.run
	return resp, true
}

// key requests an experiment key and checks its bytes and cache outcome.
func (ss *serveSession) key(base, path, wantCache string) response {
	resp, ok := ss.do(base, path)
	if !ok {
		return resp
	}
	if resp.cache != wantCache {
		ss.r.fail("GET %s: X-Cache %q, want %q", path, resp.cache, wantCache)
	}
	if !bytes.Equal(resp.body, ss.ref[path]) {
		ss.r.fail("GET %s: %d bytes differ from core.RunOne + bench.WriteJSON in-process", path, len(resp.body))
	}
	return resp
}

// engineRuns reads /metrics and checks armvirt_engine_runs_total.
func (ss *serveSession) engineRuns(s *server, want float64, phase string) response {
	resp, ok := ss.do(s.base, "/metrics")
	if !ok {
		return resp
	}
	if got, found := promValue(resp.body, "armvirt_engine_runs_total"); !found || got != want {
		ss.r.fail("%s: armvirt_engine_runs_total %v, want %v", phase, got, want)
	}
	return resp
}

// cold asks a fresh server for every key once: each is a miss that runs
// the engine, renders, fills the memory cache and writes the disk tier.
func (ss *serveSession) cold(s *server) {
	for _, k := range ss.keys {
		ss.key(s.base, k, "miss")
	}
	ss.engineRuns(s, float64(len(ss.keys)), "after the cold phase")
}

// warmRound sends one round of the warm mix to a server that holds every
// key in memory and returns the latency of each request in seconds.
func (ss *serveSession) warmRound(s *server) []float64 {
	var mix []string
	for i := 0; i < warmKeyRepeats; i++ {
		mix = append(mix, ss.keys...)
	}
	for i := 0; i < warmRuns; i++ {
		mix = append(mix, "runs")
	}
	for i := 0; i < warmLookups; i++ {
		mix = append(mix, "lookup")
	}
	for i := 0; i < warmMetrics; i++ {
		mix = append(mix, "metrics")
	}
	ss.rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	lat := make([]float64, 0, len(mix))
	for _, m := range mix {
		var resp response
		switch m {
		case "runs":
			var ok bool
			if resp, ok = ss.do(s.base, "/v1/runs?limit=20&format=json"); ok {
				var entries []runlog.Entry
				if err := json.Unmarshal(resp.body, &entries); err != nil || len(entries) != 20 {
					ss.r.fail("GET /v1/runs: %d entries (%v), want 20", len(entries), err)
				}
			}
		case "lookup":
			target := ss.lastRun
			var ok bool
			if resp, ok = ss.do(s.base, "/v1/runs/"+target); ok {
				var e runlog.Entry
				if err := json.Unmarshal(resp.body, &e); err != nil || e.ID != target {
					ss.r.fail("GET /v1/runs/%s: got run %q (%v)", target, e.ID, err)
				}
			}
		case "metrics":
			resp = ss.engineRuns(s, float64(len(ss.keys)), "during the warm phase")
		default:
			resp = ss.key(s.base, m, "hit")
		}
		lat = append(lat, resp.dur)
	}
	return lat
}

// restart opens a new server on dir and asks for every key once, in a
// seeded order: each first answer must come from the disk tier with no
// engine run. It returns the pass's wall time in seconds, each request's
// latency, and the server's final /metrics.
func (ss *serveSession) restart(dir string) (float64, []float64, []byte, error) {
	s, err := startServer(ss.tr, dir)
	if err != nil {
		return 0, nil, nil, err
	}
	order := append([]string(nil), ss.keys...)
	ss.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var lat []float64
	wall := gcTime(func() {
		for _, k := range order {
			lat = append(lat, ss.key(s.base, k, "disk").dur)
		}
	})
	m := ss.engineRuns(s, 0, "after the restart phase")
	return wall, lat, m.body, ss.stopServer(s)
}

// serveCounters are the server counters a cycle sums over its servers.
var serveCounters = []string{
	"armvirt_cache_hits_total", "armvirt_cache_misses_total",
	"armvirt_disk_cache_hits_total", "armvirt_engine_runs_total",
}

func (ss *serveSession) stopServer(s *server) error {
	err := s.stop()
	ss.c.t.CloseIdleConnections()
	return err
}

// Phases per cycle beyond the one cold pass.
const (
	warmRounds = 3 // rounds of the warm mix on the cold pass's server
	restarts   = 3 // restart passes, each on a new server over the same directory
)

// serveCycle is what one cold-warm-restart cycle measured.
type serveCycle struct {
	coldMs, coldMB float64
	warm           []float64 // per warm request: seconds
	warmWall       float64   // seconds spent in warm rounds
	restartMs      []float64 // per restart pass: wall time
	restart        []float64 // per restart request: seconds
	counts         map[string]float64
	ledgerMB       float64 // the first server's ledger file at its stop
}

// cycle runs the phases once, each after a runtime.GC(): a cold pass on a
// fresh server and directory, the warm rounds on that server, and the
// restart passes on new servers over the same directory. The servers are
// stopped and the directory removed before it returns.
func (ss *serveSession) cycle() (sc serveCycle, err error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return sc, err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(ss.tr, dir)
	if err != nil {
		return sc, err
	}
	sc.coldMs = 1e3 * gcTime(func() { sc.coldMB = allocMB(func() { ss.cold(s) }) })
	for i := 0; i < warmRounds; i++ {
		var lat []float64
		wall := gcTime(func() { lat = ss.warmRound(s) })
		sc.warmWall += wall
		sc.warm = append(sc.warm, lat...)
	}
	last := ss.engineRuns(s, float64(len(ss.keys)), "after the warm phase").body
	if err := ss.stopServer(s); err != nil {
		return sc, err
	}
	if st, err := os.Stat(filepath.Join(dir, "ledger.jsonl")); err == nil {
		sc.ledgerMB = float64(st.Size()) / (1 << 20)
	}
	sc.counts = make(map[string]float64)
	count := func(metrics []byte) {
		for _, name := range serveCounters {
			v, _ := promValue(metrics, name)
			sc.counts[name] += v
		}
	}
	count(last)
	for i := 0; i < restarts; i++ {
		wall, lat, metrics, err := ss.restart(dir)
		if err != nil {
			return sc, err
		}
		sc.restartMs = append(sc.restartMs, 1e3*wall)
		sc.restart = append(sc.restart, lat...)
		count(metrics)
	}
	return sc, nil
}

// runServe is the serve workload: one closed-loop client against
// armvirt-serve with a disk tier and a file-backed ledger. Each round is
// one cycle: A = the cold pass, B = the warm rounds, C = the restart
// passes. A restart pass is gated as a whole: its per-request median
// falls between answers of very different size and moves ten times more
// from run to run than the pass does.
func runServe(cfg config) *report {
	r := newReport("serve")
	ss := &serveSession{r: r, c: newClient(), rng: rand.New(rand.NewSource(cfg.seed)), keys: serveKeys(), ref: serveReference()}
	defer ss.c.t.CloseIdleConnections()
	if len(ss.ref) != len(ss.keys) {
		r.fail("serve: %d reference outputs for %d keys", len(ss.ref), len(ss.keys))
		return r
	}
	if err := ss.healthy(); err != nil {
		r.fail("serve set-up: %v", err)
		return r
	}
	if cfg.setupOnly {
		return r
	}
	if cfg.trace {
		traceRun(cfg, r, func(tr *tracer) {
			ss.tr = tr
			defer func() { ss.tr = nil }()
			if _, err := ss.cycle(); err != nil {
				r.fail("serve: %v", err)
			}
		})
		return r
	}
	var cold, alloc, warm, restartMs, restart []float64
	var warmWall float64
	interleave(cfg, []func(){func() {
		sc, err := ss.cycle()
		if err != nil {
			r.fail("serve: %v", err)
			return
		}
		cold = append(cold, sc.coldMs)
		alloc = append(alloc, sc.coldMB)
		warm = append(warm, sc.warm...)
		warmWall += sc.warmWall
		restartMs = append(restartMs, sc.restartMs...)
		restart = append(restart, sc.restart...)
	}})
	if len(cold) == 0 {
		return r
	}
	r.slot("mode_a_ms", "serve_cold: fresh server answers every key once", cold, "ms")
	r.slot("mode_b_ms", "serve_warm_p50: warm-mix request, median", scale(warm, 1e3), "ms")
	r.slot("mode_c_ms", "serve_restart: every key's first answer from the disk tier", restartMs, "ms")
	r.slot("alloc_mb", "serve_alloc: heap MB per cold pass", alloc, "MB")
	r.add("serve_warm_rps", float64(len(warm))/warmWall, "1/s", len(warm))
	if p, ok := tailPercentile(len(warm)); ok {
		r.add(fmt.Sprintf("serve_warm_p%g_us", p), 1e6*percentile(warm, p), "us", len(warm))
	}
	r.addMedian("serve_restart_p50_us", scale(restart, 1e6), "us")
	return r
}

// healthy starts a server on a fresh directory, checks that it answers
// /healthz, and stops it.
func (ss *serveSession) healthy() error {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(nil, dir)
	if err != nil {
		return err
	}
	resp, err := ss.c.get(nil, s.base, "/healthz")
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("/healthz: status %d", resp.status)
	}
	if serr := ss.stopServer(s); err == nil {
		err = serr
	}
	return err
}

// scale multiplies every sample by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
