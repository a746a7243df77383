package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/cluster"
	"armvirt/internal/core"
	"armvirt/internal/runlog"
	"armvirt/internal/sim"
)

// heldResponse holds a handler's status and body until instrument has
// appended the run's ledger entry, so a client that reads X-Armvirt-Run
// off a response can always fetch /v1/runs/{id} (read-your-writes).
type heldResponse struct {
	http.ResponseWriter
	status int
	wrote  bool
	body   bytes.Buffer
}

func (hr *heldResponse) WriteHeader(code int) {
	if !hr.wrote {
		hr.status = code
		hr.wrote = true
	}
}

func (hr *heldResponse) Write(b []byte) (int, error) {
	hr.wrote = true
	return hr.body.Write(b)
}

// commit sends the held status and body.
func (hr *heldResponse) commit() {
	hr.ResponseWriter.WriteHeader(hr.status)
	hr.ResponseWriter.Write(hr.body.Bytes())
}

// instrument wraps one route — the single instrumentation path every
// request takes (routed endpoints at registration time, everything else
// via the "other" fallback in Handler): panic recovery (500, counted
// separately), per-endpoint request counting and latency observation,
// and the run ledger — a trace is begun, carried in the request context
// for handlers and the admission layer to add spans to, announced in the
// X-Armvirt-Run response header, and appended as a ledger entry before
// the held response is sent.
func (s *Server) instrument(endpoint string, fn http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := s.lg.Begin(endpoint)
		if id := tr.ID(); id != "" {
			w.Header().Set("X-Armvirt-Run", id)
		}
		// A cluster-forwarded request carries the sender's run ID;
		// recording it links this entry to the forwarder's ledger.
		if r.Header.Get(cluster.ForwardedHeader) != "" {
			tr.SetUpstream(r.Header.Get(cluster.RunHeader))
		}
		r = r.WithContext(runlog.WithTrace(r.Context(), tr))
		hr := &heldResponse{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.RecordPanic()
				// Nothing has been sent yet: replace whatever the
				// handler wrote with the 500.
				hr.body.Reset()
				hr.wrote = false
				http.Error(hr, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
				tr.SetError(fmt.Errorf("handler panicked: %v", rec))
			}
			s.met.Record(endpoint, hr.status, time.Since(start))
			s.finishRun(tr, hr.status)
			hr.commit()
		}()
		fn(hr, r)
	})
}

// finishRun completes a request's trace, feeds the per-stage latency
// histograms from its span tree, and appends the entry to the ledger.
func (s *Server) finishRun(tr *runlog.Trace, status int) {
	e := tr.Finish(status)
	if e == nil {
		return
	}
	e.StudyHash = s.hash
	names, totals := e.StageTotals()
	for _, name := range names {
		s.met.ObserveStage(name, totals[name])
	}
	s.lg.Append(e)
}

// pickFormat validates the request's ?format= against the allowed set,
// defaulting to allowed[0]. On a bad value it writes 400 and returns
// ok=false.
func pickFormat(w http.ResponseWriter, r *http.Request, allowed ...string) (string, bool) {
	f := r.URL.Query().Get("format")
	if f == "" {
		return allowed[0], true
	}
	if slices.Contains(allowed, f) {
		return f, true
	}
	http.Error(w, fmt.Sprintf("unknown format %q (choose one of %s)", f, strings.Join(allowed, ", ")),
		http.StatusBadRequest)
	return "", false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the balancer-facing readiness split of /healthz: it
// flips to 503 the moment shutdown begins (Server.SetReady(false),
// before the listener closes), so a balancer stops routing here before
// Drain finishes. /healthz stays liveness-only.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	xs := ClusterStats{Ready: s.ready.Load(), Replicas: s.fwd.Replicas(), Disk: s.disk.Stats()}
	s.met.WritePrometheus(w, s.cache.Stats(), s.adm.Stats(), s.lg.Stats(), xs)
}

// clusterForward serves the request from the cache key's owning replica
// when this replica does not own it. It reports true when the response
// has been written. False means "serve locally": the server is not
// clustered, this replica owns the key, the request is already a
// forward (loop guard), or the owner failed — an unreachable or 5xx
// owner falls back to local compute, trading cluster-wide dedup for
// availability (determinism guarantees the bytes match either way).
func (s *Server) clusterForward(w http.ResponseWriter, r *http.Request, tr *runlog.Trace, key string) bool {
	if s.fwd == nil || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner, local := s.fwd.Owner(key)
	if local {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	sp := tr.Start("forward")
	resp, err := s.fwd.Forward(ctx, owner, r, tr.ID())
	if err != nil {
		sp.End()
		s.met.RecordForwardError(owner)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	if err != nil || resp.StatusCode >= http.StatusInternalServerError {
		s.met.RecordForwardError(owner)
		return false
	}
	s.met.RecordForward(owner)
	tr.SetOutcome("forward")
	tr.SetPeer(owner, resp.Header.Get(cluster.RunHeader))
	// Pass through what describes the payload and the owner's cache
	// outcome; the response body is byte-identical to a local run.
	for _, h := range []string{"Content-Type", "Content-Disposition", "X-Cache", "X-Armvirt-Study-Hash", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(cluster.PeerHeader, owner)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
	return true
}

// handleExperiments lists the registry in order — no engine runs, so no
// cache or admission involved.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	format, ok := pickFormat(w, r, "text", "json")
	if !ok {
		return
	}
	exps := core.Experiments()
	if format == "json" {
		type expInfo struct {
			ID    string `json:"id"`
			Title string `json:"title"`
			Kind  string `json:"kind"`
		}
		out := make([]expInfo, len(exps))
		for i, e := range exps {
			out[i] = expInfo{ID: e.ID, Title: e.Title, Kind: e.Kind.String()}
		}
		w.Header().Set("Content-Type", "application/json")
		bench.WriteJSON(w, out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, e := range exps {
		fmt.Fprintf(w, "%-4s %-14s %s\n", e.ID, e.Kind, e.Title)
	}
}

// handleExperiment runs (or fetches from cache) one experiment. The JSON
// rendering is byte-identical to `armvirt-report -only <id> -json`: both
// funnel through bench.WriteJSON on a one-element []core.Report.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := core.ByID(id)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown experiment %q (GET /v1/experiments for the list)", id),
			http.StatusNotFound)
		return
	}
	format, ok := pickFormat(w, r, "text", "json", "rows")
	if !ok {
		return
	}
	tr := runlog.TraceFrom(r.Context())
	tr.SetTarget(id, format)
	key := fmt.Sprintf("exp\x00%s\x00%s\x00%s", e.ID, s.hash, format)
	if s.clusterForward(w, r, tr, key) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// The cache span covers the whole lookup: for a hit it is the lookup
	// itself, for a singleflight follower the wait on the leader, and for
	// the leader (miss) it encloses the admission-wait/engine/render
	// spans the compute path adds — those land on this trace because the
	// leader runs the closure on its own request goroutine.
	sp := tr.Start("cache")
	val, outcome, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		return s.adm.Do(ctx, func() ([]byte, error) {
			return renderExperiment(tr, s.runOne, *e, format)
		})
	})
	sp.End()
	tr.SetOutcome(outcome.String())
	if err != nil {
		tr.SetError(err)
		s.writeRunError(w, err)
		return
	}
	if format == "json" || format == "rows" {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	s.writeCached(w, val, outcome)
}

// renderExperiment executes one experiment and renders it in the given
// format: the paper-layout text, the full armvirt-report JSON shape
// (identity + rows + text), or just the machine-readable rows. run is
// core.RunOne in production, so a panicking experiment comes back as an
// error (-> 500), never a crashed worker. The engine and render stages
// are traced separately, and every simulation engine the run builds is
// collected into the trace's deterministic EngineStats snapshots.
func renderExperiment(tr *runlog.Trace, run func(core.Experiment) core.Report, e core.Experiment, format string) ([]byte, error) {
	sp := tr.Start("engine")
	var rep core.Report
	col := sim.CollectStats(func() { rep = run(e) })
	sp.End()
	tr.SetEngineStats(col.PerEngine())
	if rep.Err != nil {
		return nil, rep.Err
	}
	sp = tr.Start("render")
	defer sp.End()
	var buf bytes.Buffer
	switch format {
	case "json":
		if err := bench.WriteJSON(&buf, []core.Report{rep}); err != nil {
			return nil, err
		}
	case "rows":
		if err := bench.WriteRowsJSON(&buf, rep.Result); err != nil {
			return nil, err
		}
	default:
		buf.WriteString(rep.Result.Render())
	}
	return buf.Bytes(), nil
}

// handleProfile serves the span profiler's per-phase cycle attribution
// for one (platform, op) pair, in breakdown-table, collapsed-stack, or
// gzipped-pprof form — the armvirt-prof outputs over HTTP.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	slug := r.PathValue("platform")
	label, ok := s.platformBySlug[slug]
	if !ok {
		slugs := make([]string, 0, len(s.platformBySlug))
		for k := range s.platformBySlug {
			slugs = append(slugs, k)
		}
		sort.Strings(slugs)
		http.Error(w, fmt.Sprintf("unknown platform %q (choose one of %s)", slug, strings.Join(slugs, ", ")),
			http.StatusNotFound)
		return
	}
	op := r.PathValue("op")
	if tracedOps := bench.TracedOpNames(); !slices.Contains(tracedOps, op) {
		http.Error(w, fmt.Sprintf("unknown op %q (choose one of %s)", op, strings.Join(tracedOps, ", ")),
			http.StatusNotFound)
		return
	}
	format, ok := pickFormat(w, r, "table", "folded", "pprof")
	if !ok {
		return
	}
	tr := runlog.TraceFrom(r.Context())
	tr.SetTarget(slug+"/"+op, format)
	key := fmt.Sprintf("prof\x00%s\x00%s\x00%s\x00%s", label, op, s.hash, format)
	if s.clusterForward(w, r, tr, key) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	sp := tr.Start("cache")
	val, outcome, err := s.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		return s.adm.Do(ctx, func() ([]byte, error) {
			return renderProfile(tr, label, op, format)
		})
	})
	sp.End()
	tr.SetOutcome(outcome.String())
	if err != nil {
		tr.SetError(err)
		s.writeRunError(w, err)
		return
	}
	if format == "pprof" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", slug+"-"+op+".pb.gz"))
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	s.writeCached(w, val, outcome)
}

// renderProfile profiles one (platform, op) unit and renders it, with
// the same engine/render stage split and engine-stats collection as
// renderExperiment.
func renderProfile(tr *runlog.Trace, label, op, format string) ([]byte, error) {
	sp := tr.Start("engine")
	var res bench.PhaseBreakdownResult
	col := sim.CollectStats(func() {
		res = bench.RunPhaseBreakdowns([]string{label}, []string{op}, 1)
	})
	sp.End()
	tr.SetEngineStats(col.PerEngine())
	sp = tr.Start("render")
	defer sp.End()
	switch format {
	case "folded":
		return []byte(res.Folded()), nil
	case "pprof":
		var buf bytes.Buffer
		if err := res.WritePprof(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return []byte(res.Render()), nil
}

// writeCached emits a cacheable payload with its lookup outcome and the
// study hash, so clients and the smoke test can tell hits from runs.
func (s *Server) writeCached(w http.ResponseWriter, val []byte, outcome Outcome) {
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("X-Armvirt-Study-Hash", s.hash)
	w.Write(val)
}

// writeRunError maps run-path errors to HTTP statuses: load shedding is
// retryable (429 with Retry-After), drain and timeout are 503, anything
// else — including a recovered experiment panic — is 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "timed out waiting for the experiment run: "+err.Error(),
			http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
