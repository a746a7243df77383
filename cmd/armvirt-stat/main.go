// Command armvirt-stat runs one workload with the observability recorder
// attached and reports the run the way `perf kvm stat` / xentrace would: a
// kvm_stat-style exit-reason and counter table, and optionally a Chrome
// trace-event timeline (chrome://tracing / Perfetto):
//
//	armvirt-stat -platform "KVM ARM" -workload tcp_rr
//	armvirt-stat -platform "Xen ARM" -workload tcp_rr -trace-out /tmp/t.json
//
// Runs are deterministic: the same platform + workload always produces the
// same event stream, byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/blockdev"
	"armvirt/internal/hw"
	"armvirt/internal/hyp"
	"armvirt/internal/obs"
	"armvirt/internal/telemetry"
	"armvirt/internal/workload"
)

var workloads = []string{"tcp_rr", "tick", "oversub", "faultstorm", "disk"}

// runWorkload executes one workload, converting a panic inside the run
// (model violations panic by design) into an error so the process exits
// non-zero instead of crashing.
func runWorkload(h hyp.Hypervisor, name string) (out string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("workload %s failed: %v", name, rec)
		}
	}()
	return runWorkloadBody(h, name), nil
}

func runWorkloadBody(h hyp.Hypervisor, name string) string {
	switch name {
	case "tcp_rr":
		r := workload.TCPRRVirt(h, workload.DefaultParams())
		return r.String()
	case "tick":
		r := workload.TickSim(h, 10, 100)
		return fmt.Sprintf("tick overhead: %.4fx (10ms compute at 100Hz)", r.Overhead)
	case "oversub":
		r := workload.Oversubscribe(h, 4, 1000, 100)
		return r.String()
	case "faultstorm":
		r := workload.FaultStorm(h, 256)
		return fmt.Sprintf("fault storm: cold %d cycles/fault, warm %d cycles/touch",
			int64(r.ColdPerFault), int64(r.WarmPerTouch))
	case "disk":
		m := h.Machine()
		disk := blockdev.NewDisk(m.Eng, "ssd", blockdev.SSDSpec(), m.Cost.FreqMHz)
		r := blockdev.RunVirt(h, disk, blockdev.DefaultBenchConfig())
		return r.String()
	}
	panic("unknown workload " + name)
}

func main() {
	platformFlag := flag.String("platform", "KVM ARM", `platform ("KVM ARM", "Xen ARM", "KVM x86", "Xen x86", "KVM ARM (VHE)")`)
	workloadFlag := flag.String("workload", "tcp_rr", "workload: "+strings.Join(workloads, ", "))
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
	ringCap := flag.Int("ring", 0, "per-CPU event ring capacity (0 = default)")
	intervalUs := flag.Float64("interval-us", 10, "telemetry sampling bucket, simulated microseconds (counter tracks in -trace-out)")
	flag.Parse()

	if *intervalUs <= 0 {
		fmt.Fprintln(os.Stderr, "-interval-us must be positive")
		os.Exit(2)
	}

	factory, ok := bench.Factories()[*platformFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown platform %q; choose one of %v\n", *platformFlag, bench.PlatformNames())
		os.Exit(2)
	}
	if !slices.Contains(workloads, *workloadFlag) {
		fmt.Fprintf(os.Stderr, "unknown workload %q; choose one of %v\n", *workloadFlag, workloads)
		os.Exit(2)
	}

	// The factory builds the machine inside the telemetry scope: hw.New
	// takes its sampler from the scope its engine was built in.
	var (
		m      *hw.Machine
		rec    *obs.Recorder
		result string
		err    error
	)
	tcol := telemetry.Collect(*intervalUs, func() {
		h := factory()
		m = h.Machine()
		rec = obs.NewRecorder(m.NCPU(), *ringCap)
		m.SetRecorder(rec)
		result, err = runWorkload(h, *workloadFlag)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "armvirt-stat: %v\n", err)
		os.Exit(1)
	}
	sum := obs.Summarize(rec)

	fmt.Printf("%s · %s\n", *platformFlag, *workloadFlag)
	fmt.Printf("%s\n", result)
	fmt.Printf("%s\n\n", sum.Headline())
	fmt.Print(sum.Render())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		if err := obs.WriteChromeTraceWithCounters(f, rec, m.Cost.FreqMHz, tcol.SortedSeries()); err != nil {
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
