// Command armvirt-explore runs parameter sweeps over the mechanism costs,
// exploring the design space around the paper's findings: how the
// hypercall cost scales with the VGIC read, how Xen's I/O latency depends
// on the idle-domain switch, how Xen's bulk throughput depends on the
// grant-copy cost, and how the Apache bottleneck moves with the interrupt
// rate. Each sweep produces a structured result: a rendered table on
// stdout by default, data rows with -json.
//
// Usage:
//
//	armvirt-explore -sweep vgic|idlewake|grantcopy|events|quantum [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"armvirt/internal/bench"
	"armvirt/internal/cpu"
	"armvirt/internal/hyp"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/hyp/xen"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// sweepResult adapts one finished sweep to the bench.Result shape: the
// rendered table is captured while the sweep runs, alongside the
// machine-readable rows.
type sweepResult struct {
	text string
	rows []bench.Row
}

func (s *sweepResult) Render() string     { return s.text }
func (s *sweepResult) Rows() []bench.Row  { return s.rows }
func (s *sweepResult) addRow(r bench.Row) { s.rows = append(s.rows, r) }

var _ bench.Result = (*sweepResult)(nil)

// sweeps maps each -sweep name to its run function.
var sweeps = map[string]func() bench.Result{
	"vgic":      sweepVGIC,
	"idlewake":  sweepIdleWake,
	"grantcopy": sweepGrantCopy,
	"events":    sweepEvents,
	"quantum":   sweepQuantum,
}

func main() {
	sweep := flag.String("sweep", "vgic", "which sweep to run: vgic, idlewake, grantcopy, events, quantum")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (structured result rows) instead of the table")
	flag.Parse()

	run, ok := sweeps[*sweep]
	if !ok {
		names := make([]string, 0, len(sweeps))
		for name := range sweeps {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown sweep %q; choose one of %v\n", *sweep, names)
		os.Exit(2)
	}
	res := run()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Rows()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(res.Render())
}

func label(v cpu.Cycles) string { return fmt.Sprintf("%d", v) }

// sweepVGIC varies the VGIC save cost and reports the KVM ARM hypercall:
// the single register class that dominates split-mode transition cost.
func sweepVGIC() bench.Result {
	res := &sweepResult{}
	var b strings.Builder
	fmt.Fprintln(&b, "KVM ARM hypercall vs VGIC save cost (paper: 3250 -> 6500-cycle hypercall)")
	fmt.Fprintf(&b, "%12s %12s\n", "vgic-save", "hypercall")
	for _, save := range []cpu.Cycles{100, 500, 1000, 2000, 3250, 5000} {
		cm := platform.ARMCostModel()
		cm.SetClass(cpu.VGIC, save, cm.ClassCost(cpu.VGIC).Restore)
		h := kvm.New(platform.ARMMachineWithCost(cm), platform.KVMARMCosts(), false)
		cycles := micro.Hypercall(h).Cycles
		fmt.Fprintf(&b, "%12d %12d\n", save, cycles)
		res.addRow(bench.Row{Metric: "hypercall", Value: float64(cycles), Unit: "cycles",
			Labels: map[string]string{"vgic_save": label(save)}})
	}
	res.text = b.String()
	return res
}

// sweepIdleWake varies Xen's idle-domain wake cost and reports I/O
// latency out: the paper's explanation for Xen's I/O losses.
func sweepIdleWake() bench.Result {
	res := &sweepResult{}
	var b strings.Builder
	fmt.Fprintln(&b, "Xen ARM I/O Latency Out vs idle-domain wake cost (paper: 3037 -> 16491 cycles)")
	fmt.Fprintf(&b, "%12s %12s\n", "idle-wake", "io-out")
	for _, w := range []cpu.Cycles{0, 1000, 3037, 6000, 12000} {
		c := platform.XenARMCosts()
		c.IdleWakeSched = w
		h := xen.New(platform.ARMMachine(), c)
		cycles := micro.IOLatencyOut(h).Cycles
		fmt.Fprintf(&b, "%12d %12d\n", w, cycles)
		res.addRow(bench.Row{Metric: "io_latency_out", Value: float64(cycles), Unit: "cycles",
			Labels: map[string]string{"idle_wake": label(w)}})
	}
	res.text = b.String()
	return res
}

// sweepGrantCopy varies the fixed grant-copy cost and reports Xen's
// TCP_STREAM overhead: the zero-copy question of §V.
func sweepGrantCopy() bench.Result {
	res := &sweepResult{}
	var b strings.Builder
	fmt.Fprintln(&b, "Xen ARM TCP_STREAM overhead vs grant-copy fixed cost (paper: >3us -> >250% overhead)")
	fmt.Fprintf(&b, "%14s %10s %10s\n", "grant-copy-us", "Gbps", "overhead")
	pc := micro.MeasurePathCosts(func() hyp.Hypervisor {
		return xen.New(platform.ARMMachine(), platform.XenARMCosts())
	})
	for _, us := range []float64{0, 0.5, 1, 2, 3, 5} {
		prm := workload.DefaultParams()
		prm.GrantCopyFixedUs = us
		nat := workload.TCPStream(pc, prm, false)
		virt := workload.TCPStream(pc, prm, true)
		overhead := workload.Normalized(nat, virt)
		fmt.Fprintf(&b, "%14.1f %10.2f %10.2f\n", us, virt.Gbps, overhead)
		lbl := map[string]string{"grant_copy_us": fmt.Sprintf("%.1f", us)}
		res.addRow(bench.Row{Metric: "throughput", Value: virt.Gbps, Unit: "Gbps", Labels: lbl})
		res.addRow(bench.Row{Metric: "overhead", Value: overhead, Unit: "x native", Labels: lbl})
	}
	res.text = b.String()
	return res
}

// sweepQuantum varies the time-sharing quantum with two VMs on one core
// and reports the efficiency loss to VM switching (Table II row 5's
// "central cost when oversubscribing physical CPUs").
func sweepQuantum() bench.Result {
	res := &sweepResult{}
	var b strings.Builder
	fmt.Fprintln(&b, "CPU oversubscription efficiency vs scheduling quantum (2 VMs, 1 core)")
	fmt.Fprintf(&b, "%12s %12s %12s\n", "quantum-us", "KVM ARM", "Xen ARM")
	for _, q := range []float64{10, 20, 50, 100, 500, 1000} {
		k := workload.Oversubscribe(kvm.New(platform.ARMMachine(), platform.KVMARMCosts(), false), 2, q, 40)
		x := workload.Oversubscribe(xen.New(platform.ARMMachine(), platform.XenARMCosts()), 2, q, 40)
		fmt.Fprintf(&b, "%12.0f %11.1f%% %11.1f%%\n", q, k.Efficiency*100, x.Efficiency*100)
		for _, pl := range []struct {
			name string
			eff  float64
		}{{"KVM ARM", k.Efficiency}, {"Xen ARM", x.Efficiency}} {
			res.addRow(bench.Row{Metric: "efficiency", Value: pl.eff,
				Labels: map[string]string{"quantum_us": fmt.Sprintf("%.0f", q), "platform": pl.name}})
		}
	}
	res.text = b.String()
	return res
}

// sweepEvents varies Apache's per-request interrupt count and shows where
// the VCPU0 bottleneck kicks in, concentrated vs distributed.
func sweepEvents() bench.Result {
	res := &sweepResult{}
	var b strings.Builder
	fmt.Fprintln(&b, "Apache overhead vs interrupt events per request (KVM ARM)")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "events", "concentrated", "distributed")
	pc := micro.MeasurePathCosts(func() hyp.Hypervisor {
		return kvm.New(platform.ARMMachine(), platform.KVMARMCosts(), false)
	})
	for _, k := range []float64{1, 2, 4, 6, 8, 12} {
		m := workload.Apache()
		m.Events = k
		conc, dist := m.Overhead(pc, false), m.Overhead(pc, true)
		fmt.Fprintf(&b, "%8.0f %14.2f %14.2f\n", k, conc, dist)
		for _, v := range []struct {
			virq string
			val  float64
		}{{"concentrated", conc}, {"distributed", dist}} {
			res.addRow(bench.Row{Metric: "overhead", Value: v.val, Unit: "x native",
				Labels: map[string]string{"events": fmt.Sprintf("%.0f", k), "virq": v.virq}})
		}
	}
	res.text = b.String()
	return res
}
