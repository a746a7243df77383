// Command armvirt-prof runs the traced microbenchmark operations with the
// span profiler attached and emits per-phase cycle attributions — the
// paper's Table III methodology generalized to every operation and
// platform:
//
//	armvirt-prof -table                        # breakdown tables, all platforms/ops
//	armvirt-prof -folded > suite.folded        # flamegraph.pl / speedscope input
//	armvirt-prof -pprof prof.pb.gz             # go tool pprof prof.pb.gz
//	armvirt-prof -platform "KVM ARM" -op hypercall -table
//
// Units run on a worker pool (-j) but are assembled in a fixed order, so
// every output is byte-identical across runs and parallelism levels.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/micro"
)

func main() {
	platformFlag := flag.String("platform", "", `profile a single platform ("KVM ARM", "Xen ARM", "KVM x86", "Xen x86", "KVM ARM (VHE)"; default all four paper platforms)`)
	opFlag := flag.String("op", "", "profile a single operation ("+strings.Join(micro.TracedOps, ", ")+"; default all)")
	jobs := flag.Int("j", runtime.NumCPU(), "number of units to profile in parallel (experiment-level)")
	table := flag.Bool("table", false, "print per-phase breakdown tables (default when no output is selected)")
	folded := flag.Bool("folded", false, "print collapsed-stack flamegraph lines to stdout")
	pprofOut := flag.String("pprof", "", "write a gzipped pprof profile to this file")
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "-j %d out of range: need at least 1 worker\n", *jobs)
		os.Exit(2)
	}

	var labels, ops []string
	if *platformFlag != "" {
		if _, ok := bench.Factories()[*platformFlag]; !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platformFlag)
			os.Exit(2)
		}
		labels = []string{*platformFlag}
	}
	if *opFlag != "" {
		if !slices.Contains(micro.TracedOps, *opFlag) {
			fmt.Fprintf(os.Stderr, "unknown op %q; choose one of %v\n", *opFlag, micro.TracedOps)
			os.Exit(2)
		}
		ops = []string{*opFlag}
	}
	if !*table && !*folded && *pprofOut == "" {
		*table = true
	}

	r, err := run(labels, ops, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-prof: %v\n", err)
		os.Exit(1)
	}

	if *table {
		fmt.Print(r.Render())
	}
	if *folded {
		fmt.Print(r.Folded())
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *pprofOut, err)
			os.Exit(1)
		}
		if err := r.WritePprof(f); err != nil {
			fmt.Fprintf(os.Stderr, "write pprof: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", *pprofOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d units to %s\n", len(r.Units), *pprofOut)
	}
}

// run executes the profiling suite, converting a panic in any unit into an
// error so the process exits non-zero instead of crashing with a stack.
func run(labels, ops []string, jobs int) (r bench.PhaseBreakdownResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("profiling failed: %v", rec)
		}
	}()
	return bench.RunPhaseBreakdowns(labels, ops, jobs), nil
}
