package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: armvirt/internal/workload
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFleetPartitioned-4           	       5	  30462421 ns/op	    4608 outbox-msgs	  519000 stall-cycles	    1152 windows
BenchmarkProcSwitch-4                 	35090541	        33.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkRunAll/j=1-4                 	       1	 901234567 ns/op
BenchmarkRunAll/j=4-4                 	       1	 300411522 ns/op
PASS
`

func TestParseAndDerive(t *testing.T) {
	var doc Doc
	if err := parse(strings.NewReader(sample), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || !strings.Contains(doc.CPUModel, "Xeon") {
		t.Fatalf("header metadata not parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(doc.Benchmarks))
	}
	ps := doc.Benchmarks[1]
	if ps.Name != "BenchmarkProcSwitch" || ps.NsPerOp != 33.40 {
		t.Fatalf("ProcSwitch parsed wrong: %+v", ps)
	}
	if ps.BytesPerOp == nil || *ps.BytesPerOp != 0 || ps.AllocsPerOp == nil || *ps.AllocsPerOp != 0 {
		t.Fatalf("benchmem fields parsed wrong: %+v", ps)
	}
	fleet := doc.Benchmarks[0]
	if fleet.NsPerOp != 30462421 {
		t.Fatalf("fleet ns/op parsed wrong with custom metrics present: %+v", fleet)
	}
	want := map[string]float64{"outbox-msgs": 4608, "stall-cycles": 519000, "windows": 1152}
	for unit, v := range want {
		if fleet.Extra[unit] != v {
			t.Fatalf("custom metric %s = %v, want %v (extra %v)", unit, fleet.Extra[unit], v, fleet.Extra)
		}
	}
	if ps.Extra != nil {
		t.Fatalf("ProcSwitch has no custom metrics, got %v", ps.Extra)
	}

	sp := derive(doc.Benchmarks)
	if len(sp) != 1 {
		t.Fatalf("derived %d speedups, want 1 (j=4): %+v", len(sp), sp)
	}
	if j4 := sp[0]; j4.Name != "BenchmarkRunAll/j=4" || j4.Base != "BenchmarkRunAll/j=1" || j4.Ratio != 3.0 {
		t.Fatalf("j=4 speedup wrong: %+v", j4)
	}
}

func TestIngestSniffsLoadgenJSON(t *testing.T) {
	var doc Doc
	rep := `
	{
	  "kind": "armvirt-loadgen",
	  "targets": ["http://127.0.0.1:18181"],
	  "paths": ["/v1/experiments/T1?format=json"],
	  "offered_rps": 40,
	  "duration_s": 5,
	  "sent": 200, "ok": 198, "shed": 2, "errors": 0, "not_ready_skips": 0,
	  "achieved_rps": 39.4, "shed_rate": 0.01,
	  "latency_us": {"p50": 900, "p95": 3100, "p99": 6000, "mean": 1200, "max": 8191, "n": 198},
	  "outcomes": {"hit": 190, "miss": 8},
	  "forwarded": 60
	}`
	if err := ingest(strings.NewReader(rep), &doc); err != nil {
		t.Fatal(err)
	}
	if err := ingest(strings.NewReader(sample), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Loadgen) != 1 {
		t.Fatalf("ingested %d loadgen reports, want 1", len(doc.Loadgen))
	}
	lg := doc.Loadgen[0]
	if lg.OK != 198 || lg.Latency.P99 != 6000 || lg.Outcomes["hit"] != 190 || lg.Forwarded != 60 {
		t.Fatalf("loadgen report fields wrong: %+v", lg)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("bench text still parses after a JSON input: %d benchmarks, want 4", len(doc.Benchmarks))
	}

	// Non-loadgen JSON is an error, not a silent skip.
	if err := ingest(strings.NewReader(`{"kind":"other"}`), &doc); err == nil {
		t.Fatal("ingest accepted JSON with the wrong kind")
	}
	if err := ingest(strings.NewReader(`{broken`), &doc); err == nil {
		t.Fatal("ingest accepted malformed JSON")
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkFoo",
		"BenchmarkFoo-8",
		"Benchmarking is fun",
		"BenchmarkFoo-8 12 34 MB/s",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("parseLine accepted %q", line)
		}
	}
}

func TestSplitKnob(t *testing.T) {
	cases := []struct {
		name string
		stem string
		n    int
		ok   bool
	}{
		{"BenchmarkRunAll/j=1", "BenchmarkRunAll", 1, true},
		{"BenchmarkRunAll/j=4", "BenchmarkRunAll", 4, true},
		{"BenchmarkRunAll/j=1#01", "", 0, false},
		{"BenchmarkFleetSpeedup/par=4", "", 0, false},
		{"BenchmarkPlain", "", 0, false},
		{"BenchmarkX/size=4", "", 0, false},
	}
	for _, c := range cases {
		stem, n, ok := splitKnob(c.name)
		if stem != c.stem || n != c.n || ok != c.ok {
			t.Fatalf("splitKnob(%q) = %q, %d, %v; want %q, %d, %v",
				c.name, stem, n, ok, c.stem, c.n, c.ok)
		}
	}
}
