// Command armvirt-vet statically enforces the simulator's determinism and
// instrumentation invariants over the whole module:
//
//	armvirt-vet ./...                  # run the full suite
//	armvirt-vet -json ./...            # machine-readable diagnostics
//	armvirt-vet -sarif ./...           # SARIF 2.1.0 for code scanning
//	armvirt-vet -mapiter=false ./...   # disable one analyzer
//	armvirt-vet -timing -budget 30s ./...
//	armvirt-vet -detclock.scope sim,hyp ./internal/...
//
// Per-package analyzers (DESIGN.md §9):
//
//	detclock     no wall-clock reads or unseeded randomness in the
//	             deterministic packages (//armvirt:wallclock allowlists)
//	mapiter      no map-iteration order leaking into emitted rows
//	nilrecorder  nil-receiver guards on obs.Recorder methods; no
//	             allocating arguments at recorder call sites
//	spanbalance  every Span paired with an EndSpan on all return paths
//
// Cross-package analyzers, over the module call graph (DESIGN.md §14):
//
//	partsafe     code reachable from sim partitioned dispatch must not
//	             write package-level state (//armvirt:partshared escapes)
//	bindcheck    goroutines that reach sim.NewEngine must bind the run
//	             scope (stats and telemetry collectors) first
//	layering     the deterministic/wall-clock import DAG, checked
//	errsink      no silently dropped durability errors in cluster/runlog
//	             (//armvirt:errsink escapes)
//
// Unknown flags — including a -<name> enable flag or -<name>.scope for an
// analyzer that does not exist — exit 2 listing the valid analyzer names.
//
// Exit status: 0 when clean, 1 when any analyzer reports a diagnostic
// (or the -budget is exceeded), 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"armvirt/internal/analysis"
)

func main() {
	fs := flag.NewFlagSet("armvirt-vet", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of vet-style text")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log for code scanning")
	timing := fs.Bool("timing", false, "print per-analyzer timing to stderr")
	budget := fs.Duration("budget", 0, "fail (exit 1) when total analysis time exceeds this duration; 0 disables")
	scope := fs.String("detclock.scope", strings.Join(analysis.DetclockScope, ","),
		"comma-separated deterministic package set for detclock (names relative to armvirt/internal/, prefix-matched)")
	errsinkScope := fs.String("errsink.scope", strings.Join(analysis.ErrsinkScope, ","),
		"comma-separated durability package set for errsink (names relative to armvirt/internal/, prefix-matched)")
	enabled := map[string]*bool{}
	for _, a := range analysis.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		// flag prints "flag provided but not defined: -X" itself; follow
		// the bench.PlatformNames idiom and list the valid universe.
		if strings.Contains(err.Error(), "not defined") {
			fmt.Fprintf(os.Stderr, "armvirt-vet: valid analyzers: %s\n", strings.Join(analyzerNames(), ", "))
		}
		os.Exit(2)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *scope != "" {
		analysis.DetclockScope = strings.Split(*scope, ",")
	}
	if *errsinkScope != "" {
		analysis.ErrsinkScope = strings.Split(*errsinkScope, ",")
	}
	var run []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}
	if len(run) == 0 {
		fmt.Fprintln(os.Stderr, "armvirt-vet: all analyzers disabled")
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-vet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-vet: %v\n", err)
		os.Exit(2)
	}
	diags, timings, err := analysis.RunTimed(run, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-vet: %v\n", err)
		os.Exit(2)
	}

	var total time.Duration
	for _, t := range timings {
		total += t.Elapsed
	}
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "armvirt-vet: %-12s %8.1fms\n", t.Analyzer, float64(t.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(os.Stderr, "armvirt-vet: %-12s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}

	switch {
	case *sarifOut:
		err = analysis.WriteSARIF(os.Stdout, wd, run, diags)
	case *jsonOut:
		err = analysis.WriteJSON(os.Stdout, diags)
	default:
		err = analysis.WriteText(os.Stdout, diags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-vet: %v\n", err)
		os.Exit(2)
	}

	fail := len(diags) > 0
	if *budget > 0 && total > *budget {
		fmt.Fprintf(os.Stderr, "armvirt-vet: analysis took %v, over the %v budget\n",
			total.Round(time.Millisecond), *budget)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// analyzerNames returns the sorted analyzer name universe for the
// unknown-flag message (the bench.PlatformNames idiom).
func analyzerNames() []string {
	var names []string
	for _, a := range analysis.Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}
