// Command armvirt-benchjson converts `go test -bench` text output into
// the repo's BENCH_*.json perf-trajectory format.
//
// It reads one or more benchmark output files (or stdin when none are
// given), parses the standard result lines
//
//	BenchmarkName[/sub]-P   N   T ns/op [B B/op] [A allocs/op]
//
// and emits a single JSON document: host metadata (goos/goarch/cpu model
// from the bench headers, plus the host core count), every parsed
// benchmark, and derived wall-clock speedups for the experiment-level
// parallelism knob — any pair "X/j=1" vs "X/j=N" yields a speedup entry
// ns_j1/ns_jN. Speedups are meaningful only when host_cpus spans the
// worker counts: on a single-core host every level collapses to roughly
// 1x by construction.
//
// Input files whose first non-space byte is '{' are instead parsed as
// armvirt-loadgen -json reports (cluster.LoadReport) and collected
// under "loadgen" — serving-tier trajectory points (latency quantiles,
// achieved throughput, shed rate) alongside the engine benchmarks.
//
// Usage: armvirt-benchjson [-out FILE] [bench-output.txt|loadgen.json ...]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"armvirt/internal/cluster"
)

// Result is one parsed benchmark line. Extra carries any custom
// b.ReportMetric units beyond the standard three — the PDES health
// counters (windows, stall-cycles, outbox-msgs) BenchmarkFleetPartitioned
// reports land here, keyed by their unit string.
type Result struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Speedup is a derived parallel-vs-serial ratio within one benchmark
// family: base is the "/j=1" member, the ratio its ns/op over the
// faster-knob member's.
type Speedup struct {
	Name    string  `json:"name"`
	Base    string  `json:"base"`
	Ratio   float64 `json:"speedup"`
	NsBase  float64 `json:"ns_base"`
	NsParal float64 `json:"ns_par"`
}

// Doc is the emitted BENCH_*.json document.
type Doc struct {
	GOOS       string    `json:"goos,omitempty"`
	GOARCH     string    `json:"goarch,omitempty"`
	CPUModel   string    `json:"cpu,omitempty"`
	HostCPUs   int       `json:"host_cpus"`
	Benchmarks []Result  `json:"benchmarks"`
	Speedups   []Speedup `json:"speedups,omitempty"`
	// Loadgen holds armvirt-loadgen report documents given as inputs:
	// the serving-tier side of the perf trajectory.
	Loadgen []cluster.LoadReport `json:"loadgen,omitempty"`
}

func main() {
	out := flag.String("out", "", "write JSON here (default stdout)")
	flag.Parse()

	doc := Doc{HostCPUs: runtime.NumCPU()}
	if flag.NArg() == 0 {
		if err := ingest(os.Stdin, &doc); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = ingest(f, &doc)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if len(doc.Benchmarks) == 0 && len(doc.Loadgen) == 0 {
		fatal(fmt.Errorf("no benchmark result lines or loadgen reports found"))
	}
	doc.Speedups = derive(doc.Benchmarks)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "armvirt-benchjson:", err)
	os.Exit(1)
}

// ingest routes one input stream by sniffing its first non-space byte:
// '{' means an armvirt-loadgen JSON report, anything else is `go test
// -bench` text.
func ingest(r io.Reader, doc *Doc) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimLeftFunc(buf, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var rep cluster.LoadReport
		if err := json.Unmarshal(trimmed, &rep); err != nil {
			return fmt.Errorf("parsing loadgen report: %w", err)
		}
		if rep.Kind != "armvirt-loadgen" {
			return fmt.Errorf("JSON input has kind %q, want \"armvirt-loadgen\"", rep.Kind)
		}
		doc.Loadgen = append(doc.Loadgen, rep)
		return nil
	}
	return parse(bytes.NewReader(buf), doc)
}

// parse consumes one `go test -bench` output stream: header lines fill the
// host metadata, "Benchmark..." lines append results.
func parse(r io.Reader, doc *Doc) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPUModel = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if !ok {
				continue
			}
			doc.Benchmarks = append(doc.Benchmarks, res)
		}
	}
	return sc.Err()
}

// parseLine decodes one result line; ok is false for non-result lines that
// merely start with "Benchmark" (e.g. a name echoed without fields) and for
// lines carrying no ns/op value. go test sorts (value, unit) pairs by unit,
// so ns/op is scanned for rather than assumed at a fixed position; unknown
// units (custom b.ReportMetric output) collect into Extra.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := f[0]
	// Strip the "-P" GOMAXPROCS suffix go test appends to the name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: name, Runs: runs}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
			sawNs = true
		case "B/op":
			b := int64(v)
			res.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			res.AllocsPerOp = &a
		case "MB/s":
			// Throughput is derivable from ns/op; skip it like before.
		default:
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[f[i+1]] = v
		}
	}
	if !sawNs {
		return Result{}, false
	}
	return res, true
}

// derive finds parallelism families: benchmarks whose names differ only in
// a trailing "/j=N" component. Each family member with N > 1 gets a
// speedup entry against the family's N == 1 base.
func derive(results []Result) []Speedup {
	bases := map[string]Result{}
	for _, r := range results {
		if stem, n, ok := splitKnob(r.Name); ok && n == 1 {
			bases[stem] = r
		}
	}
	var out []Speedup
	for _, r := range results {
		stem, n, ok := splitKnob(r.Name)
		if !ok || n == 1 {
			continue
		}
		base, ok := bases[stem]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{
			Name:    r.Name,
			Base:    base.Name,
			Ratio:   round3(base.NsPerOp / r.NsPerOp),
			NsBase:  base.NsPerOp,
			NsParal: r.NsPerOp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// splitKnob recognizes a trailing "/j=N" sub-benchmark name.
func splitKnob(name string) (stem string, n int, ok bool) {
	i := strings.LastIndex(name, "/")
	if i < 0 {
		return "", 0, false
	}
	if v, found := strings.CutPrefix(name[i+1:], "j="); found {
		if num, err := strconv.Atoi(v); err == nil && num > 0 {
			return name[:i], num, true
		}
	}
	return "", 0, false
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
