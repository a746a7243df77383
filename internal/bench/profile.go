package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"armvirt/internal/micro"
	"armvirt/internal/obs"
	"armvirt/internal/sim"
)

// PhaseUnit is one profiled (platform, operation) pair: the measured
// single-operation total plus the span tree attributing every cycle of it.
type PhaseUnit struct {
	// Platform is the Table II column label ("KVM ARM", ...).
	Platform string
	// Op is the micro.TracedOps key; Name its display name.
	Op, Name string
	// FreqMHz converts the unit's cycles to wall time.
	FreqMHz int
	// Cycles is the measured operation total; the unit's phase cycles sum
	// to it exactly.
	Cycles int64
	// Entries are the profile's leaf stacks; Tree its indented rows.
	Entries []obs.ProfileEntry
	// Tree is the rendered span hierarchy.
	Tree []obs.TreeRow
}

// PhaseBreakdownResult is the per-phase cost decomposition of the traced
// microbenchmark operations across platforms — the paper's Table III
// methodology generalized to every operation and platform, produced by the
// span profiler.
type PhaseBreakdownResult struct {
	Units []PhaseUnit
}

// TracedOpNames returns the operations the microbenchmark tracer accepts
// (a copy of micro.TracedOps, in its canonical order). It exists as the
// bench-seam re-export for wall-tier callers: the serving tier validates
// op names against it without importing engine internals (the layering
// analyzer enforces that boundary).
func TracedOpNames() []string {
	return append([]string(nil), micro.TracedOps...)
}

// RunPhaseBreakdowns profiles each op (default micro.TracedOps) on each
// platform (default the paper's four). parallelism bounds concurrent
// units (< 1 = serial); every unit builds a private platform, and results
// are assembled by index, so output is byte-identical across parallelism
// levels and repeated runs.
func RunPhaseBreakdowns(labels, ops []string, parallelism int) PhaseBreakdownResult {
	if len(labels) == 0 {
		labels = Platforms
	}
	if len(ops) == 0 {
		ops = micro.TracedOps
	}
	f := Factories()
	type job struct{ label, op string }
	var jobsList []job
	for _, l := range labels {
		if f[l] == nil {
			panic("bench: unknown platform " + l)
		}
		for _, op := range ops {
			jobsList = append(jobsList, job{l, op})
		}
	}
	units := make([]PhaseUnit, len(jobsList))
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(jobsList) {
		parallelism = len(jobsList)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	// Workers inherit the caller's run scope, so the engines each unit
	// builds register with the caller's sim.StatsCollector and machines
	// sample into its telemetry.Collector.
	bind := sim.Inherit()
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			detach := bind()
			defer detach()
			for i := range jobs {
				j := jobsList[i]
				pr := micro.ProfileOp(f[j.label](), j.op)
				units[i] = PhaseUnit{
					Platform: j.label, Op: j.op, Name: pr.Name,
					FreqMHz: pr.FreqMHz, Cycles: int64(pr.Cycles),
					Entries: pr.Profile.Entries(), Tree: pr.Profile.Tree(),
				}
			}
		}()
	}
	for i := range jobsList {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return PhaseBreakdownResult{Units: units}
}

// Render formats every unit as an indented phase tree with self and
// subtree cycles — the per-operation cost breakdown tables.
func (r PhaseBreakdownResult) Render() string {
	var b strings.Builder
	b.WriteString("Per-phase cycle attribution (span profiler)\n")
	for _, u := range r.Units {
		fmt.Fprintf(&b, "\n%s — %s: %d cycles (%.2f us)\n",
			u.Platform, u.Name, u.Cycles, float64(u.Cycles)/float64(u.FreqMHz))
		for _, row := range u.Tree {
			indent := strings.Repeat("  ", row.Depth)
			if row.Self == row.Total {
				fmt.Fprintf(&b, "  %-52s %8d\n", indent+row.Name, row.Total)
			} else {
				fmt.Fprintf(&b, "  %-52s %8d  (self %d)\n", indent+row.Name, row.Total, row.Self)
			}
		}
	}
	return b.String()
}

// Rows enumerates one row per leaf phase (the phase path joined with "/")
// plus each unit's measured total, in unit order.
func (r PhaseBreakdownResult) Rows() []Row {
	var rows []Row
	for _, u := range r.Units {
		for _, e := range u.Entries {
			rows = append(rows, row("phase_cycles", float64(e.Cycles), "cycles",
				"platform", u.Platform, "op", u.Op, "phase", strings.Join(e.Stack, "/")))
		}
		rows = append(rows, row("total_cycles", float64(u.Cycles), "cycles",
			"platform", u.Platform, "op", u.Op))
	}
	return rows
}

// Folded renders all units in collapsed-stack flamegraph format, each
// stack prefixed with "platform;op" frames so one file holds the whole
// suite. Deterministic and byte-identical across runs.
func (r PhaseBreakdownResult) Folded() string {
	var b strings.Builder
	for _, u := range r.Units {
		prefix := obs.Slug(u.Platform) + ";" + u.Op + ";"
		for _, e := range u.Entries {
			fmt.Fprintf(&b, "%s%s %d\n", prefix, strings.Join(e.Stack, ";"), e.Cycles)
		}
	}
	return b.String()
}

// WritePprof serializes all units as one gzipped pprof profile with
// platform and op as the outermost frames; sample values are simulated
// cycles and their wall-time equivalent at each unit's frequency.
func (r PhaseBreakdownResult) WritePprof(w io.Writer) error {
	var samples []obs.PprofSample
	for _, u := range r.Units {
		samples = append(samples, obs.PprofSamples(u.Entries, u.FreqMHz, obs.Slug(u.Platform), u.Op)...)
	}
	return obs.WritePprof(w, samples)
}

var _ Result = PhaseBreakdownResult{}
