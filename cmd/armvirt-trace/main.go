// Command armvirt-trace dumps the full cycle attribution of one hypervisor
// operation on one platform — the Table III methodology applied anywhere:
//
//	armvirt-trace -platform "Xen ARM" -op vmswitch
//	armvirt-trace -platform "KVM ARM" -op stage2fault -trace-out /tmp/t.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/hyp"
	"armvirt/internal/micro"
	"armvirt/internal/obs"
)

func main() {
	platformFlag := flag.String("platform", "KVM ARM", `platform ("KVM ARM", "Xen ARM", "KVM x86", "Xen x86", "KVM ARM (VHE)")`)
	op := flag.String("op", "hypercall", "operation: "+strings.Join(micro.TracedOps, ", "))
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the traced run to this file")
	flag.Parse()

	factories := bench.Factories()
	factory, ok := factories[*platformFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown platform %q; choose one of %v\n", *platformFlag, bench.PlatformNames())
		os.Exit(2)
	}
	if !slices.Contains(micro.TracedOps, *op) {
		fmt.Fprintf(os.Stderr, "unknown op %q; choose one of %v\n", *op, micro.TracedOps)
		os.Exit(2)
	}

	h := factory()
	m := h.Machine()
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder(m.NCPU(), 0)
		m.SetRecorder(rec)
	}

	r, err := traceOp(h, *op)
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: %d cycles\n\n", r.Name, *platformFlag, r.Cycles)
	for _, c := range r.Profile.Charges() {
		fmt.Printf("%-32s %8d\n", c.Name, c.Cycles)
	}
	fmt.Printf("%-32s %8d\n", "TOTAL", r.Profile.Total())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTrace(f, rec, m.Cost.FreqMHz); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d events to %s\n", rec.Total(), *traceOut)
	}
}

// traceOp converts a panic inside the profiled run (model violations panic
// by design) into an error so the process exits non-zero instead of
// crashing.
func traceOp(h hyp.Hypervisor, op string) (r micro.OpProfile, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("trace failed: %v", rec)
		}
	}()
	return micro.ProfileOp(h, op), nil
}
