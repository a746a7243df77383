package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestTimeseriesColdWarmEquivalence: the telemetry endpoint has the same
// cache contract as /v1/experiments — a cold compute and a warm hit return
// identical bytes, per format.
func TestTimeseriesColdWarmEquivalence(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, format := range []string{"csv", "json"} {
		path := "/v1/experiments/PD1/timeseries?format=" + format
		status, cold, xc := get(t, ts, path)
		if status != http.StatusOK || xc != "miss" {
			t.Fatalf("%s cold: status=%d X-Cache=%q body=%s", format, status, xc, cold)
		}
		status, warm, xc := get(t, ts, path)
		if status != http.StatusOK || xc != "hit" {
			t.Fatalf("%s warm: status=%d X-Cache=%q", format, status, xc)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: cache hit bytes differ from fresh-run bytes", format)
		}
	}
}

// TestTimeseriesParIndependence: the host thread count is not a cache
// key — the series are byte-identical at every GOMAXPROCS, so computes on
// fresh servers under different GOMAXPROCS must agree.
func TestTimeseriesParIndependence(t *testing.T) {
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		status, body, xc := get(t, ts, "/v1/experiments/PD1/timeseries?format=csv")
		if status != http.StatusOK || xc != "miss" {
			t.Fatalf("GOMAXPROCS=%d: status=%d X-Cache=%q body=%s", procs, status, xc, body)
		}
		return body
	}
	if a, b := render(1), render(4); !bytes.Equal(a, b) {
		t.Error("timeseries differ between GOMAXPROCS 1 and 4")
	}
}

// TestTimeseriesContent: the PD1 fleet series carry the contended-phase
// signals in both renderings — nonzero steal and run-queue depth on the
// 8-PCPU machine.
func TestTimeseriesContent(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, csv, _ := get(t, ts, "/v1/experiments/PD1/timeseries?format=csv")
	if !strings.HasPrefix(string(csv), "machine,series,name,cpu,vm,bucket,t_us,value\n") {
		t.Fatalf("csv missing header: %.80s", csv)
	}
	for _, series := range []string{",steal,", ",runq,"} {
		if !strings.Contains(string(csv), series) {
			t.Errorf("csv has no %s rows", strings.Trim(series, ","))
		}
	}

	_, body, _ := get(t, ts, "/v1/experiments/PD1/timeseries?format=json")
	var doc struct {
		Machines []struct {
			NCPU    int `json:"ncpu"`
			Buckets int `json:"buckets"`
		} `json:"machines"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("json response invalid: %v", err)
	}
	if len(doc.Machines) == 0 {
		t.Fatal("json response has no machines")
	}
	if m := doc.Machines[0]; m.NCPU != 8 || m.Buckets == 0 {
		t.Errorf("machine = %+v, want ncpu=8 with sampled buckets", m)
	}
}

// TestTimeseriesErrorPaths: unknown ids 404, bad formats and par values 400,
// and the registered route only answers GET.
func TestTimeseriesErrorPaths(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/experiments/NOPE/timeseries", http.StatusNotFound},
		{"/v1/experiments/PD1/timeseries?format=xml", http.StatusBadRequest},
	} {
		if status, body, _ := get(t, ts, c.path); status != c.want {
			t.Errorf("GET %s: status %d, want %d (body %s)", c.path, status, c.want, body)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments/PD1/timeseries", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("POST on the timeseries route succeeded; want method mismatch")
	}
}

// TestMetricsBuildInfoAndTelemetryGauges: /metrics always exposes
// armvirt_build_info, and the telemetry volume counters advance after a
// timeseries compute.
func TestMetricsBuildInfoAndTelemetryGauges(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, before, _ := get(t, ts, "/metrics")
	if !strings.Contains(string(before), "armvirt_build_info{go_version=") {
		t.Errorf("/metrics missing armvirt_build_info: %.200s", before)
	}
	if !strings.Contains(string(before), "armvirt_telemetry_series_total 0\n") ||
		!strings.Contains(string(before), "armvirt_telemetry_samples_total 0\n") {
		t.Errorf("/metrics missing zeroed telemetry counters:\n%s", before)
	}

	get(t, ts, "/v1/experiments/PD1/timeseries?format=csv")
	_, after, _ := get(t, ts, "/metrics")
	if strings.Contains(string(after), "armvirt_telemetry_series_total 0\n") ||
		strings.Contains(string(after), "armvirt_telemetry_samples_total 0\n") {
		t.Errorf("telemetry counters did not advance after a compute:\n%s", after)
	}
}
