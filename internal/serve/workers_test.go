package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"armvirt/internal/runlog"
)

// TestExperimentWorkerCountInvisible: the partitioned engine takes its
// window-worker count from GOMAXPROCS, and the response bytes never show
// it. PD1 is the experiment that builds a partitioned engine. A ?par= from
// an older client is not read: the request is served exactly like one
// without it, from the same cache entry.
func TestExperimentWorkerCountInvisible(t *testing.T) {
	const path = "/v1/experiments/PD1?format=rows"
	// Independent servers, so each GOMAXPROCS level really runs the
	// engine rather than hitting the other's cached bytes.
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		status, body, xc := get(t, ts, path)
		if status != http.StatusOK || xc != "miss" {
			t.Fatalf("GOMAXPROCS=%d: status=%d X-Cache=%q", procs, status, xc)
		}
		return body
	}
	base := run(1)
	if wide := run(4); !bytes.Equal(base, wide) {
		t.Fatalf("response bytes differ between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", base, wide)
	}

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body, _ := get(t, ts, path); status != http.StatusOK || !bytes.Equal(body, base) {
		t.Fatalf("plain request: status=%d, bytes differ from the fresh runs", status)
	}
	for _, par := range []string{"1", "4", "0", "banana"} {
		status, body, xc := get(t, ts, path+"&par="+par)
		if status != http.StatusOK || xc != "hit" || !bytes.Equal(body, base) {
			t.Fatalf("par=%s: status=%d X-Cache=%q, want the plain request's cached bytes", par, status, xc)
		}
	}
}

// TestRunLedgerReadYourWrites: a run's ledger entry is in place by the
// time its response arrives, so the X-Armvirt-Run header can be followed
// at once.
func TestRunLedgerReadYourWrites(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/experiments/T2?format=rows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Armvirt-Run")
	if id == "" {
		t.Fatal("no run id header")
	}
	e := s.lg.Get(id)
	if e == nil {
		t.Fatalf("run %q not in ledger", id)
	}
	if e.Target != "T2" || e.Format != "rows" {
		t.Fatalf("ledger entry target/format = %q/%q, want T2/rows", e.Target, e.Format)
	}
}

// TestRunLedgerReadsRetiredParField: ledger files written while the
// engine worker count was a request option carry a "par" field. Those
// lines still load through the ledger reader and serve from
// /v1/runs/{id}; the field is simply dropped.
func TestRunLedgerReadsRetiredParField(t *testing.T) {
	const id = "20261019t114716-000001"
	line := `{"id":"` + id + `","start":"2026-10-19T11:47:16Z","endpoint":"experiment",` +
		`"target":"PD1","format":"rows","study_hash":"0123abcd","status":200,` +
		`"outcome":"miss","par":2,"total_us":41250}` + "\n"
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := runlog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != id || entries[0].Target != "PD1" || entries[0].TotalUS != 41250 {
		t.Fatalf("ReadFile = %+v, want the one entry %s", entries, id)
	}

	lg, _ := runlog.Open("", 0, 0)
	lg.Append(entries[0])
	s := New(Config{Ledger: lg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body, _ := get(t, ts, "/v1/runs/"+id)
	var got map[string]any
	if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/runs/%s: status=%d err=%v body=%s", id, status, err, body)
	}
	if got["id"] != id || got["target"] != "PD1" {
		t.Fatalf("GET /v1/runs/%s = %s, want the loaded PD1 entry", id, body)
	}
	if _, ok := got["par"]; ok {
		t.Fatalf("GET /v1/runs/%s still carries par: %s", id, body)
	}
}
