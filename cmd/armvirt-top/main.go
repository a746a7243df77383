// Command armvirt-top runs one experiment with the deterministic in-sim
// telemetry sampler attached and reports the recorded time series the way
// top/vmstat would for a real host: a per-PCPU utilization table at a
// chosen simulated timestamp plus whole-run totals, or the raw series in
// CSV/JSON for plotting.
//
//	armvirt-top -exp PD1
//	armvirt-top -exp PD1 -at 120
//	armvirt-top -exp PD1 -format csv > series.csv
//
// The sampler rides the simulation's event clock, so the output is a pure
// function of the experiment: byte-identical across runs, -j levels, and
// host thread counts — the property `make telemetry-determinism` asserts.
package main

import (
	"flag"
	"fmt"
	"os"

	"armvirt/internal/core"
	"armvirt/internal/sim"
	"armvirt/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "PD1", "experiment ID to run (GET the list with armvirt-report -list or /v1/experiments)")
	format := flag.String("format", "table", "output format: table, csv, or json")
	at := flag.Float64("at", -1, "with -format table: also print the per-PCPU state at this simulated time (us)")
	intervalUs := flag.Float64("interval-us", 10, "sampling bucket width in simulated microseconds")
	flag.Parse()

	e := core.ByID(*exp)
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known IDs:\n", *exp)
		for _, x := range core.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", x.ID, x.Title)
		}
		os.Exit(2)
	}
	if *format != "table" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown format %q (choose table, csv, or json)\n", *format)
		os.Exit(2)
	}
	if *intervalUs <= 0 {
		fmt.Fprintf(os.Stderr, "-interval-us %g out of range: need a positive bucket width\n", *intervalUs)
		os.Exit(2)
	}

	var rep core.Report
	col := telemetry.Collect(*intervalUs, func() { rep = core.RunOne(*e) })
	if rep.Err != nil {
		fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, rep.Err)
		os.Exit(1)
	}
	series := col.SortedSeries()

	switch *format {
	case "csv":
		if err := telemetry.WriteCSV(os.Stdout, series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "json":
		if err := telemetry.WriteJSON(os.Stdout, series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Printf("%s — %s (%d sampled machines)\n", e.ID, e.Title, len(series))
		for mi, ts := range series {
			if ts.Buckets == 0 {
				continue
			}
			fmt.Printf("\nmachine %d: %d pcpus @ %d MHz\n", mi, ts.NCPU, ts.FreqMHz)
			if *at >= 0 {
				fmt.Print(ts.Table(sim.Time(*at * float64(ts.FreqMHz))))
			}
			fmt.Print(ts.Summary())
		}
	}
}
