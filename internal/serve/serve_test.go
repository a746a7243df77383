package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/core"
)

// get fetches a path from the test server and returns status, body, and
// the X-Cache header.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Cache")
}

// TestExperimentColdWarmEquivalence is the cache-correctness acceptance
// test: a cold (fresh-run) response, a warm (cache-hit) response, and
// the armvirt-report -only <id> -json rendering must all be
// byte-identical, for both output formats.
func TestExperimentColdWarmEquivalence(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const id = "T2"
	status, cold, xc := get(t, ts, "/v1/experiments/"+id+"?format=json")
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("cold: status=%d X-Cache=%q", status, xc)
	}
	status, warm, xc := get(t, ts, "/v1/experiments/"+id+"?format=json")
	if status != http.StatusOK || xc != "hit" {
		t.Fatalf("warm: status=%d X-Cache=%q", status, xc)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache hit bytes differ from fresh-run bytes")
	}

	// The exact bytes armvirt-report -only T2 -json prints.
	var direct bytes.Buffer
	if err := bench.WriteJSON(&direct, []core.Report{core.RunOne(*core.ByID(id))}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, direct.Bytes()) {
		t.Fatal("served JSON differs from the armvirt-report rendering")
	}

	// Text format: same determinism, same cache behaviour.
	status, coldText, xc := get(t, ts, "/v1/experiments/"+id)
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("cold text: status=%d X-Cache=%q", status, xc)
	}
	_, warmText, xc := get(t, ts, "/v1/experiments/"+id+"?format=text")
	if xc != "hit" {
		t.Fatalf("warm text: X-Cache=%q", xc)
	}
	if !bytes.Equal(coldText, warmText) {
		t.Fatal("text cache hit differs from fresh run")
	}
	if want := core.RunOne(*core.ByID(id)).Result.Render(); string(coldText) != want {
		t.Fatal("served text differs from Result.Render()")
	}

	// Rows format: the bench.WriteRowsJSON shape, cached independently.
	status, rows, xc := get(t, ts, "/v1/experiments/"+id+"?format=rows")
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("rows: status=%d X-Cache=%q", status, xc)
	}
	var wantRows bytes.Buffer
	if err := bench.WriteRowsJSON(&wantRows, core.RunOne(*core.ByID(id)).Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rows, wantRows.Bytes()) {
		t.Fatal("served rows differ from bench.WriteRowsJSON")
	}
}

// TestSingleflightCollapsesConcurrentRequests is the load acceptance
// test: 64 concurrent requests for the same experiment produce exactly
// one engine run, and every response carries the same bytes.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 64
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], bodies[i], _ = get(t, ts, "/v1/experiments/T2?format=json")
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
	if runs := s.adm.Stats().Runs; runs != 1 {
		t.Fatalf("engine runs = %d, want exactly 1 (singleflight)", runs)
	}
	cs := s.cache.Stats()
	if cs.Misses != 1 || cs.Hits+cs.Shared != n-1 {
		t.Errorf("cache stats: %+v, want 1 miss and %d hit/shared", cs, n-1)
	}
}

// stubServer returns a server whose experiment runs block on the
// returned release channel, reporting each run's ID on started.
func stubServer(cfg Config) (s *Server, started chan string, release chan struct{}) {
	s = New(cfg)
	started = make(chan string, 64)
	release = make(chan struct{})
	s.runOne = func(e core.Experiment) core.Report {
		started <- e.ID
		<-release
		return core.Report{Experiment: e, Result: bench.Text("stub " + e.ID + "\n")}
	}
	return s, started, release
}

// TestQueueBoundsShedExcessLoad: with 1 worker and a queue of 1, a
// third concurrent distinct request is answered 429 immediately rather
// than queued without bound.
func TestQueueBoundsShedExcessLoad(t *testing.T) {
	s, started, release := stubServer(Config{Workers: 1, QueueDepth: 1, Timeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	results := make(chan int, 2)
	go func() { st, _, _ := get(t, ts, "/v1/experiments/T1"); results <- st }()
	<-started // T1 occupies the worker
	go func() { st, _, _ := get(t, ts, "/v1/experiments/T2"); results <- st }()
	for s.adm.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	status, body, _ := get(t, ts, "/v1/experiments/T3")
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status=%d body=%q, want 429", status, body)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if st := <-results; st != http.StatusOK {
			t.Errorf("admitted request finished with %d", st)
		}
	}
	if st := s.adm.Stats(); st.Runs != 2 || st.RejectedQueue != 1 {
		t.Errorf("admission stats: %+v", st)
	}
}

// TestDrainWaitsForInflightRuns: once draining, new requests get 503
// while the in-flight run completes successfully before Drain returns.
func TestDrainWaitsForInflightRuns(t *testing.T) {
	s, started, release := stubServer(Config{Workers: 2, QueueDepth: 2, Timeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() { st, _, _ := get(t, ts, "/v1/experiments/T1"); inflight <- st }()
	<-started

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	// Wait for Drain to close admission before asking for T2: a T2 that
	// slipped in first would take the second worker and block on release.
	for {
		s.adm.mu.Lock()
		draining := s.adm.draining
		s.adm.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if status, _, _ := get(t, ts, "/v1/experiments/T2"); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status=%d, want 503", status)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a run still in flight")
	default:
	}

	close(release)
	<-drained
	if st := <-inflight; st != http.StatusOK {
		t.Errorf("in-flight run during drain finished with %d", st)
	}
}

// TestExperimentErrorPaths covers 404, 400, a failing run (500), and a
// panicking run (500 via the cache's compute recovery).
func TestExperimentErrorPaths(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body, _ := get(t, ts, "/v1/experiments/NOPE"); status != http.StatusNotFound ||
		!strings.Contains(string(body), "unknown experiment") {
		t.Errorf("unknown id: status=%d body=%q", status, body)
	}
	if status, _, _ := get(t, ts, "/v1/experiments/T1?format=yaml"); status != http.StatusBadRequest {
		t.Errorf("bad format: status=%d", status)
	}

	s.runOne = func(e core.Experiment) core.Report {
		return core.Report{Experiment: e, Err: fmt.Errorf("experiment %s broke", e.ID)}
	}
	if status, body, _ := get(t, ts, "/v1/experiments/T1"); status != http.StatusInternalServerError ||
		!strings.Contains(string(body), "T1 broke") {
		t.Errorf("failing run: status=%d body=%q", status, body)
	}

	s.runOne = func(core.Experiment) core.Report { panic("run exploded") }
	if status, body, _ := get(t, ts, "/v1/experiments/T2"); status != http.StatusInternalServerError ||
		!strings.Contains(string(body), "run exploded") {
		t.Errorf("panicking run: status=%d body=%q", status, body)
	}
	// Errors are not cached: a healthy run afterwards succeeds.
	s.runOne = core.RunOne
	if status, _, xc := get(t, ts, "/v1/experiments/T1"); status != http.StatusOK || xc != "miss" {
		t.Errorf("recovery after failure: status=%d X-Cache=%q", status, xc)
	}
}

// TestProfileEndpoint serves the span profiler's outputs and caches
// them like experiment results.
func TestProfileEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, table, xc := get(t, ts, "/v1/profile/kvm-arm/hypercall")
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("table: status=%d X-Cache=%q", status, xc)
	}
	if !strings.Contains(string(table), "KVM ARM — Hypercall") {
		t.Errorf("table output missing unit header:\n%s", table)
	}

	status, cold, _ := get(t, ts, "/v1/profile/kvm-arm/hypercall?format=folded")
	if status != http.StatusOK {
		t.Fatalf("folded: status=%d", status)
	}
	if want := bench.RunPhaseBreakdowns([]string{"KVM ARM"}, []string{"hypercall"}, 1).Folded(); string(cold) != want {
		t.Error("served folded output differs from a direct RunPhaseBreakdowns")
	}
	_, warm, xc := get(t, ts, "/v1/profile/kvm-arm/hypercall?format=folded")
	if xc != "hit" || !bytes.Equal(cold, warm) {
		t.Errorf("folded warm: X-Cache=%q equal=%v", xc, bytes.Equal(cold, warm))
	}

	status, pb, _ := get(t, ts, "/v1/profile/xen-arm/vmswitch?format=pprof")
	if status != http.StatusOK {
		t.Fatalf("pprof: status=%d", status)
	}
	if len(pb) < 2 || pb[0] != 0x1f || pb[1] != 0x8b {
		t.Errorf("pprof output is not gzip (starts %x)", pb[:min(len(pb), 4)])
	}

	if status, _, _ := get(t, ts, "/v1/profile/riscv/hypercall"); status != http.StatusNotFound {
		t.Errorf("unknown platform: status=%d", status)
	}
	if status, _, _ := get(t, ts, "/v1/profile/kvm-arm/teleport"); status != http.StatusNotFound {
		t.Errorf("unknown op: status=%d", status)
	}
}

// TestListingHealthMetrics covers the non-run endpoints.
func TestListingHealthMetrics(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body, _ := get(t, ts, "/healthz"); status != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: status=%d body=%q", status, body)
	}

	status, listing, _ := get(t, ts, "/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("listing: status=%d", status)
	}
	for _, e := range core.Experiments() {
		if !strings.Contains(string(listing), e.ID) {
			t.Errorf("listing missing %s", e.ID)
		}
	}
	status, jl, _ := get(t, ts, "/v1/experiments?format=json")
	if status != http.StatusOK || !strings.Contains(string(jl), `"id": "T2"`) {
		t.Errorf("json listing: status=%d body=%.120q", status, jl)
	}

	get(t, ts, "/v1/experiments/T1") // one run so metrics have content
	get(t, ts, "/no/such/path")
	status, metrics, _ := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status=%d", status)
	}
	for _, want := range []string{
		`armvirt_requests_total{endpoint="experiment",code="200"} 1`,
		`armvirt_requests_total{endpoint="other",code="404"} 1`,
		"armvirt_cache_misses_total 1",
		"armvirt_engine_runs_total 1",
		`armvirt_request_latency_us{endpoint="experiment",quantile="0.99"}`,
		"armvirt_admission_workers",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
