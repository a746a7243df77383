// Command armvirt-apps regenerates the paper's application benchmark
// results: Figure 4 (normalized performance of nine workloads on four
// platforms), the Table V netperf TCP_RR analysis, and the in-text
// virtual-interrupt distribution experiment.
//
// Usage:
//
//	armvirt-apps [-tcprr] [-distributed] [-virqdist] [-json]
package main

import (
	"flag"
	"fmt"
	"os"

	"armvirt/internal/bench"
)

func main() {
	tcprrOnly := flag.Bool("tcprr", false, "print only the Table V TCP_RR analysis")
	distributed := flag.Bool("distributed", false, "run the request-serving workloads with virtual interrupts distributed across VCPUs")
	virqdist := flag.Bool("virqdist", false, "also print the virq-distribution experiment")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (structured result rows) instead of the tables")
	flag.Parse()

	var results []bench.Result
	if *tcprrOnly {
		results = []bench.Result{bench.RunTableV()}
	} else {
		results = []bench.Result{bench.RunFigure4(*distributed), bench.RunTableV()}
		if *virqdist {
			results = append(results, bench.RunVirqDistribution())
		}
	}

	if *asJSON {
		if err := bench.WriteRowsJSON(os.Stdout, results...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.Render())
	}
}
