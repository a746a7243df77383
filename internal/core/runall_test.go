package core

import (
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// renderAll flattens reports the way armvirt-report's default path does, so
// equivalence here implies byte-identical tool output.
func renderAll(reports []Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.ID)
		b.WriteString("\n")
		if r.Err != nil {
			b.WriteString("ERR " + r.Err.Error() + "\n")
			continue
		}
		b.WriteString(r.Result.Render())
	}
	return b.String()
}

// TestRunAllParallelMatchesSerial is the determinism contract of the
// parallel runner: running the full registry with a worker pool must
// produce byte-identical output to the serial path, in registry order.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	serial := renderAll(RunAll(context.Background(), 1))
	parallel := renderAll(RunAll(context.Background(), 4))
	if serial != parallel {
		t.Fatal("parallel RunAll output differs from serial output")
	}
	if len(serial) < 1000 {
		t.Fatalf("suspiciously short study output (%d bytes)", len(serial))
	}
}

func TestRunAllPreservesRegistryOrder(t *testing.T) {
	reports := RunAll(context.Background(), runtime.NumCPU())
	exps := Experiments()
	if len(reports) != len(exps) {
		t.Fatalf("got %d reports, want %d", len(reports), len(exps))
	}
	for i, r := range reports {
		if r.ID != exps[i].ID {
			t.Fatalf("report %d is %s, want %s", i, r.ID, exps[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range RunAll(ctx, 2) {
		if r.Err == nil {
			t.Errorf("%s ran despite cancelled context", r.ID)
		}
	}
}

func TestReportJSONShape(t *testing.T) {
	rep := RunOne(*ByID("T2"))
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string `json:"id"`
		Kind string `json:"kind"`
		Rows []struct {
			Metric string            `json:"metric"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		} `json:"rows"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "T2" || decoded.Kind != "paper artifact" {
		t.Fatalf("bad identity: %+v", decoded)
	}
	if len(decoded.Rows) == 0 || decoded.Text == "" {
		t.Fatalf("missing rows/text: %d rows, %d text bytes", len(decoded.Rows), len(decoded.Text))
	}
	found := false
	for _, r := range decoded.Rows {
		if r.Metric == "cycles" && r.Labels["platform"] == "KVM ARM" &&
			r.Labels["benchmark"] == "Hypercall" && r.Value == 6500 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the calibrated KVM ARM hypercall row (6500 cycles) in T2 JSON")
	}
}

// BenchmarkRunAll prices the full study at serial and full-machine
// parallelism; the ratio is the wall-clock win of the worker pool.
func BenchmarkRunAll(b *testing.B) {
	levels := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		levels = append(levels, n)
	}
	for _, j := range levels {
		b.Run("j="+strconv.Itoa(j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunAll(context.Background(), j)
			}
		})
	}
}

// benchResult keeps BenchmarkExperiment's calls from being optimized away.
var benchResult Result

// BenchmarkExperiment prices each registry experiment on its own (wall
// time and allocations), so the RunAll total decomposes by experiment.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchResult = e.Run()
			}
		})
	}
}
