// Command armbench is armvirt's end-to-end benchmark. It drives the
// program from outside through its Go API, one workload per run:
//
//   - study: full-registry passes (core.RunAll + bench.WriteJSON, the
//     armvirt-report -json path) at -j 1 and -j nproc, and the text report;
//   - fleet: PD1's 8-PCPU fleet on the serial engine and partitioned at
//     -par 1 and -par nproc;
//   - serve: an armvirt-serve handler with a disk tier and a file-backed
//     ledger behind a loopback listener, driven by one closed-loop client
//     through cold, warm and restart phases.
//
// Every timed metric is a median over many repetitions inside the run;
// modes are interleaved (A B C A B C ...) and each timed repetition starts
// after a runtime.GC(). Outputs are checked against the paper's own tables
// and against in-process recomputation, never against stored output.
//
// Usage:
//
//	armbench --workload study|fleet|serve --seed N --seconds S --trace 0|1
//	armbench steady
//
// setup_s is the median of several set-ups, each in a fresh process of
// this binary (armbench setup <workload>): the wall time from starting the
// process to the workload's first timed operation, so one-time costs such
// as package initialisation, lazily built tables and a cold heap fall in
// every sample.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics traced). A failed output check exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// outDir is where the benchmark writes everything it leaves behind —
// the built binary, temporary serve directories, Chrome traces —
// relative to the checkout root it runs from.
const outDir = ".bench_build"

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	// setupOnly makes a workload return right after its set-up, before
	// its first timed operation.
	setupOnly bool
}

// deadline is when the run's measuring time is up.
func (c config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

// sample is one reported metric: its median (or count), unit, and the
// number of samples behind it.
type sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	n      int
	spread float64 // interquartile range over median of the samples; NaN if not a median
	alias  string  // what the metric is on this workload, for the printed report
}

// report is what one workload run produced.
type report struct {
	workload  string
	metrics   map[string]sample
	order     []string
	attempted int
	failed    int
	errs      []string
	notes     []string // printed after the metrics
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]sample)}
}

// add records a metric with the number of samples behind it.
func (r *report) add(name string, v float64, unit string, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = sample{Value: v, Unit: unit, n: n, spread: math.NaN()}
}

// addMedian records the median of xs.
func (r *report) addMedian(name string, xs []float64, unit string) {
	r.add(name, median(xs), unit, len(xs))
	if len(xs) > 1 {
		m := r.metrics[name]
		m.spread = spread(xs)
		r.metrics[name] = m
	}
}

// slot records the median of xs under an end-to-end slot name, printed
// with the name the slot stands for on this workload.
func (r *report) slot(name, alias string, xs []float64, unit string) {
	r.addMedian(name, xs, unit)
	m := r.metrics[name]
	m.alias = alias
	r.metrics[name] = m
}

// minRounds is the fewest interleaved rounds a run makes, however short
// its measuring time.
const minRounds = 5

// interleave runs the modes round-robin — A B C A B C ... — until the
// run's measuring time is up, and at least minRounds whole rounds. Every
// run therefore attempts whole rounds of the same operations.
func interleave(cfg config, modes []func()) {
	end := cfg.deadline(time.Now())
	for n := 0; n < minRounds || time.Now().Before(end); n++ {
		for _, m := range modes {
			m()
		}
	}
}

// fail records a failed output check. A run with any failure is not
// correct and exits non-zero.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	}
	if len(r.errs) == 20 {
		r.errs = append(r.errs, "... further failures suppressed")
	}
}

// correct reports whether every output check passed.
func (r *report) correct() bool { return len(r.errs) == 0 }

// gcTime runs fn after a full collection and returns its wall time in
// seconds.
func gcTime(fn func()) float64 {
	runtime.GC()
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// heapAllocated is the process's cumulative heap allocation in bytes.
// runtime.ReadMemStats flushes every P's allocation cache first, so small
// differences are exact (runtime/metrics counts them only when a cache
// span is refilled).
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocMB runs fn and returns the heap megabytes allocated meanwhile.
func allocMB(fn func()) float64 {
	a := heapAllocated()
	fn()
	return float64(heapAllocated()-a) / (1 << 20)
}

// workloadDef is one workload: its runner and what its set-up does.
type workloadDef struct {
	run   func(config) *report
	setup string
}

// workloads maps each workload name to its definition.
var workloads = map[string]workloadDef{
	"study": {runStudy, "first JSON pass at -j nproc, checked against the paper"},
	"fleet": {runFleet, "one checked run of each engine mode"},
	"serve": {runServe, "in-process reference outputs, a server up and answering /healthz"},
}

// setupRuns is how many fresh-process set-ups an untraced run times.
const setupRuns = 25

// timeSetup starts this binary as "armbench setup <workload>" and returns
// the wall time from starting it until it reports that its set-up is
// done. The child then exits; its exit status says whether the set-up's
// output checks passed.
func timeSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "setup", cfg.workload, strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %v", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process printed %q (%v), want ready", line, rerr)
	}
	return d, nil
}

// setupChild is "armbench setup <workload> <seed>": it runs the workload's
// set-up, prints "ready" as soon as it is done, and exits 1 if one of its
// output checks failed.
func setupChild(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: armbench setup <workload> <seed>")
		return 2
	}
	w, ok := workloads[args[0]]
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if !ok || err != nil {
		fmt.Fprintln(os.Stderr, "usage: armbench setup <workload> <seed>")
		return 2
	}
	r := w.run(config{workload: args[0], seed: seed, nproc: runtime.NumCPU(), setupOnly: true})
	if !r.correct() {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "armbench setup: CHECK FAILED:", e)
		}
		return 1
	}
	fmt.Println("ready")
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "setup" {
		os.Exit(setupChild(os.Args[2:]))
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: study, fleet or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (orders the serve workload's warm mix)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measuring time of the run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics and writing a Chrome trace")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: armbench --workload study|fleet|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "armbench:", err)
		os.Exit(1)
	}
	var setups []float64
	var setupErr error
	for i := 0; i < setupRuns && !cfg.trace && setupErr == nil; i++ {
		var x float64
		x, setupErr = timeSetup(cfg)
		setups = append(setups, x)
	}
	var r *report
	if setupErr != nil {
		r = newReport(cfg.workload)
		r.fail("set-up: %v", setupErr)
	} else {
		r = w.run(cfg)
	}
	if len(setups) == setupRuns {
		r.slot("setup_s", "fresh process to first timed operation: "+w.setup, setups, "s")
	}
	os.Exit(emit(cfg, r))
}

// emit prints the human-readable report and the final JSON line, and
// returns the exit code.
func emit(cfg config, r *report) int {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  nproc %d\n",
		r.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc)
	for _, name := range r.order {
		m := r.metrics[name]
		iqr := "-"
		if !math.IsNaN(m.spread) {
			iqr = fmt.Sprintf("%.3f", m.spread)
		}
		fmt.Printf("  %-34s %16.6g %-6s n=%-6d iqr/med %-6s %s\n", name, m.Value, m.Unit, m.n, iqr, m.alias)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", r.attempted, r.failed)
	out := make(map[string]sample, len(want))
	for _, d := range want {
		m, ok := r.metrics[d.name]
		switch {
		case !ok:
			r.fail("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			r.fail("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		default:
			out[d.name] = m
		}
	}
	if r.attempted < 1 {
		r.fail("no operation attempted")
	}
	for _, e := range r.errs {
		fmt.Println("  CHECK FAILED:", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]sample `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "armbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name, unit string
}

// endToEnd lists the gated metrics every workload prints untraced. The
// three mode slots are the workload's interleaved modes; README.md maps
// each slot to its meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mode_a_ms", "ms"},
	{"mode_b_ms", "ms"},
	{"mode_c_ms", "ms"},
	{"alloc_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, sorted by name.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.dispatch_ns", "ns"},
		{"sim.switch_ns", "ns"},
		{"sim.queue_ns", "ns"},
		{"sim.sendto_ns", "ns"},
		{"sim.window_us", "us"},
		{"sim.ns_per_event.study", "ns"},
		{"sim.ns_per_event.fleet_serial", "ns"},
		{"sim.ns_per_event.fleet_par1", "ns"},
		{"sim.events.study", "count"},
		{"sim.events.fleet", "count"},
		{"sim.windows.fleet", "count"},
		{"sim.outbox_msgs.fleet", "count"},
		{"obs.fleet_bare_ms", "ms"},
		{"obs.fleet_recorded_ms", "ms"},
		{"obs.fleet_sampled_ms", "ms"},
		{"render.json_ms", "ms"},
		{"render.text_ms", "ms"},
		{"serve.handler_hit_us", "us"},
		{"serve.cache_hit_ns", "ns"},
		{"serve.admission_ns", "ns"},
		{"serve.hits", "count"},
		{"serve.misses", "count"},
		{"serve.disk_hits", "count"},
		{"serve.engine_runs", "count"},
		{"serve.warm_rps", "1/s"},
		{"serve.warm_p99_us", "us"},
		{"cluster.disk_put_us", "us"},
		{"cluster.disk_get_us", "us"},
		{"cluster.open_ms", "ms"},
		{"runlog.append_us", "us"},
		{"runlog.recent_us", "us"},
		{"runlog.ledger_mb", "MB"},
		{"trace.overhead_ms", "ms"},
	}
	for _, op := range modelOps {
		for _, pl := range modelPlatforms {
			defs = append(defs, metricDef{"model." + op.name + "." + pl.slug + "_us", "us"})
		}
	}
	for _, id := range studyIDs {
		defs = append(defs, metricDef{"exp." + id + "_ms", "ms"}, metricDef{"exp." + id + "_alloc_mb", "MB"})
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}()
