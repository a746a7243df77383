package bench

import (
	"fmt"
	"sort"
	"strings"

	"armvirt/internal/hyp"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

// Factory builds a fresh hypervisor platform; every measurement gets an
// unshared machine.
type Factory func() hyp.Hypervisor

// Factories maps the Table II column labels to platform constructors.
func Factories() map[string]Factory {
	return map[string]Factory{
		"KVM ARM":       func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() },
		"Xen ARM":       func() hyp.Hypervisor { return platform.NewXenARM().Hyp() },
		"KVM x86":       func() hyp.Hypervisor { return platform.NewKVMX86().Hyp() },
		"Xen x86":       func() hyp.Hypervisor { return platform.NewXenX86().Hyp() },
		"KVM ARM (VHE)": func() hyp.Hypervisor { return platform.NewKVMARMVHE().Hyp() },
	}
}

// PlatformNames lists the Factories keys in sorted order, for flag
// validation messages and deterministic sweeps over all platforms.
func PlatformNames() []string {
	f := Factories()
	names := make([]string, 0, len(f))
	for name := range f {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Cell is one paper-vs-measured comparison.
type Cell struct {
	Paper    float64
	Measured float64
	// Approx is true when the paper value was read off a chart rather
	// than stated numerically.
	Approx bool
	// NA is true when the paper could not run this configuration.
	NA bool
}

// DeltaPct is the signed percentage difference from the paper value.
func (c Cell) DeltaPct() float64 {
	if c.NA || c.Paper == 0 {
		return 0
	}
	return 100 * (c.Measured - c.Paper) / c.Paper
}

// TableIIResult holds the regenerated microbenchmark table.
type TableIIResult struct {
	// Cells[platform][micro].
	Cells map[string]map[string]Cell
}

// RunTableII regenerates Table II for the given platforms (defaults to the
// paper's four when labels is empty).
func RunTableII(labels ...string) TableIIResult {
	if len(labels) == 0 {
		labels = Platforms
	}
	f := Factories()
	out := TableIIResult{Cells: map[string]map[string]Cell{}}
	for _, label := range labels {
		res := micro.RunAll(f[label])
		row := map[string]Cell{}
		for _, r := range res {
			paper := 0.0
			if p, ok := PaperTableII[label]; ok {
				paper = p[r.Name]
			}
			row[r.Name] = Cell{Paper: paper, Measured: float64(r.Cycles)}
		}
		out.Cells[label] = row
	}
	return out
}

// Render formats the table in the paper's layout (rows = microbenchmarks,
// columns = platforms), with the paper value beside each measurement.
func (t TableIIResult) Render() string {
	var labels []string
	for l := range t.Cells {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return platformOrder(labels[i]) < platformOrder(labels[j]) })
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Microbenchmark Measurements (cycle counts, measured/paper)\n")
	fmt.Fprintf(&b, "%-28s", "Microbenchmark")
	for _, l := range labels {
		fmt.Fprintf(&b, " %22s", l)
	}
	b.WriteString("\n")
	for _, name := range Micros {
		fmt.Fprintf(&b, "%-28s", name)
		for _, l := range labels {
			c := t.Cells[l][name]
			if c.Paper > 0 {
				fmt.Fprintf(&b, " %10.0f /%10.0f", c.Measured, c.Paper)
			} else {
				fmt.Fprintf(&b, " %10.0f /%10s", c.Measured, "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Rows enumerates the cells platform-major in paper column order, one
// "cycles" row per measurement plus a "paper_cycles" row where the paper
// states a value.
func (t TableIIResult) Rows() []Row {
	var labels []string
	for l := range t.Cells {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return platformOrder(labels[i]) < platformOrder(labels[j]) })
	var rows []Row
	for _, l := range labels {
		for _, name := range Micros {
			c := t.Cells[l][name]
			rows = append(rows, row("cycles", c.Measured, "cycles", "platform", l, "benchmark", name))
			if c.Paper > 0 {
				rows = append(rows, row("paper_cycles", c.Paper, "cycles", "platform", l, "benchmark", name))
			}
		}
	}
	return rows
}

func platformOrder(label string) int {
	for i, l := range append(append([]string{}, Platforms...), "KVM ARM (VHE)") {
		if l == label {
			return i
		}
	}
	return 99
}

// TableIIIResult is the hypercall cost attribution.
type TableIIIResult struct {
	// SaveRestore[class] = {measured save, measured restore}.
	SaveRestore map[string][2]float64
	// Total is the full measured hypercall cost; Other is what is not
	// register state movement (traps, toggles, handler).
	Total, Other float64
}

// RunTableIII regenerates Table III on split-mode KVM ARM.
func RunTableIII() TableIIIResult {
	r := micro.ProfileOp(Factories()["KVM ARM"](), "hypercall")
	charged := map[string]int64{}
	for _, c := range r.Profile.Charges() {
		charged[c.Name] = c.Cycles
	}
	out := TableIIIResult{SaveRestore: map[string][2]float64{}, Total: float64(r.Cycles)}
	var state int64
	for _, cls := range TableIIIOrder {
		save, restore := charged[cls+": save"], charged[cls+": restore"]
		out.SaveRestore[cls] = [2]float64{float64(save), float64(restore)}
		state += save + restore
	}
	out.Other = out.Total - float64(state)
	return out
}

// Render formats Table III with the paper values beside the measurements.
func (t TableIIIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table III: KVM ARM Hypercall Analysis (cycle counts, measured/paper)\n")
	fmt.Fprintf(&b, "%-26s %18s %18s\n", "Register State", "Save", "Restore")
	for _, cls := range TableIIIOrder {
		m := t.SaveRestore[cls]
		p := PaperTableIII[cls]
		fmt.Fprintf(&b, "%-26s %8.0f /%8.0f %8.0f /%8.0f\n", cls, m[0], p[0], m[1], p[1])
	}
	fmt.Fprintf(&b, "%-26s %8.0f (traps, toggles, handler)\n", "Other", t.Other)
	fmt.Fprintf(&b, "%-26s %8.0f /%8.0f\n", "Hypercall total", t.Total, PaperTableII["KVM ARM"]["Hypercall"])
	return b.String()
}

// Rows enumerates save/restore per register class, then the residual and
// the total.
func (t TableIIIResult) Rows() []Row {
	var rows []Row
	for _, cls := range TableIIIOrder {
		m := t.SaveRestore[cls]
		rows = append(rows,
			row("save", m[0], "cycles", "class", cls),
			row("restore", m[1], "cycles", "class", cls))
	}
	rows = append(rows,
		row("other", t.Other, "cycles"),
		row("total", t.Total, "cycles"))
	return rows
}

// TableVResult is the regenerated Netperf TCP_RR analysis.
type TableVResult struct {
	Native, KVM, Xen workload.TCPRRResult
}

// RunTableV regenerates Table V's three columns on the ARM platforms.
func RunTableV() TableVResult {
	prm := workload.DefaultParams()
	return TableVResult{
		Native: workload.TCPRRNative(platform.ARMMachine(), prm),
		KVM:    workload.TCPRRVirt(Factories()["KVM ARM"](), prm),
		Xen:    workload.TCPRRVirt(Factories()["Xen ARM"](), prm),
	}
}

func (t TableVResult) row(name string) [3]float64 {
	pick := func(r workload.TCPRRResult) float64 {
		switch name {
		case "Trans/s":
			return r.TransPerSec
		case "Time/trans (us)":
			return r.TimePerTransUs
		case "send to recv (us)":
			return r.SendToRecvUs
		case "recv to send (us)":
			return r.RecvToSendUs
		case "recv to VM recv (us)":
			return r.RecvToVMRecvUs
		case "VM recv to VM send (us)":
			return r.VMRecvToVMSendUs
		case "VM send to send (us)":
			return r.VMSendToSendUs
		}
		panic("bench: unknown Table V row " + name)
	}
	return [3]float64{pick(t.Native), pick(t.KVM), pick(t.Xen)}
}

// Render formats Table V with paper values beside measurements.
func (t TableVResult) Render() string {
	var b strings.Builder
	b.WriteString("Table V: Netperf TCP_RR Analysis on ARM (measured/paper)\n")
	fmt.Fprintf(&b, "%-26s %18s %18s %18s\n", "", "Native", "KVM", "Xen")
	for _, name := range TableVOrder {
		m := t.row(name)
		p := PaperTableV[name]
		fmt.Fprintf(&b, "%-26s", name)
		for i := 0; i < 3; i++ {
			if p[i] < 0 {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			fmt.Fprintf(&b, " %8.1f /%8.1f", m[i], p[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Rows enumerates every Table V metric for the three columns.
func (t TableVResult) Rows() []Row {
	var rows []Row
	cols := []string{"Native", "KVM", "Xen"}
	for _, name := range TableVOrder {
		m := t.row(name)
		for i, c := range cols {
			if PaperTableV[name][i] < 0 {
				continue // the paper does not decompose this column
			}
			rows = append(rows, row(name, m[i], "", "config", c))
		}
	}
	return rows
}

// Figure4Result is the regenerated application benchmark figure.
type Figure4Result struct {
	// Cells[workload][platform].
	Cells map[string]map[string]Cell
}

// RunFigure4 regenerates Figure 4: normalized performance (1.0 = native)
// for all nine workloads on the four platforms. distributed selects the
// virq-distribution configuration for the request-serving workloads
// (false = the paper's default).
func RunFigure4(distributed bool) Figure4Result {
	f := Factories()
	prm := workload.DefaultParams()
	out := Figure4Result{Cells: map[string]map[string]Cell{}}
	for _, w := range Workloads {
		out.Cells[w] = map[string]Cell{}
	}

	// Native TCP_RR baselines per architecture.
	natARM := workload.TCPRRNative(platform.ARMMachine(), prm)
	natX86 := workload.TCPRRNative(platform.X86Machine(false), prm)

	for _, label := range Platforms {
		pc := micro.MeasurePathCosts(f[label])
		put := func(w string, measured float64) {
			paper := PaperFigure4[w][label]
			cell := Cell{Paper: paper, Measured: measured, Approx: !Figure4Exact[w][label]}
			if paper == NA {
				cell = Cell{NA: true}
			}
			out.Cells[w][label] = cell
		}
		put("Kernbench", workload.Kernbench().Overhead(pc))
		put("Hackbench", workload.Hackbench().Overhead(pc))
		put("SPECjvm2008", workload.SPECjvm2008().Overhead(pc))

		nat := natARM
		if pc.FreqMHz == platform.X86FreqMHz {
			nat = natX86
		}
		rr := workload.TCPRRVirt(f[label](), prm)
		put("TCP_RR", rr.TimePerTransUs/nat.TimePerTransUs)

		natS := workload.TCPStream(pc, prm, false)
		put("TCP_STREAM", workload.Normalized(natS, workload.TCPStream(pc, prm, true)))
		natM := workload.TCPMaerts(pc, prm, false, false)
		put("TCP_MAERTS", workload.Normalized(natM, workload.TCPMaerts(pc, prm, true, false)))

		put("Apache", workload.Apache().Overhead(pc, distributed))
		put("Memcached", workload.Memcached().Overhead(pc, distributed))
		put("MySQL", workload.MySQL().Overhead(pc, distributed))
	}
	return out
}

// Figure4Cell computes a single workload x platform cell (used by the
// benchmark harness, which prices one cell per iteration rather than the
// whole figure).
func Figure4Cell(w, label string, distributed bool) Cell {
	if PaperFigure4[w][label] == NA {
		return Cell{NA: true}
	}
	f := Factories()
	prm := workload.DefaultParams()
	pc := micro.MeasurePathCosts(f[label])
	var measured float64
	switch w {
	case "Kernbench":
		measured = workload.Kernbench().Overhead(pc)
	case "Hackbench":
		measured = workload.Hackbench().Overhead(pc)
	case "SPECjvm2008":
		measured = workload.SPECjvm2008().Overhead(pc)
	case "TCP_RR":
		nat := workload.TCPRRNative(platform.ARMMachine(), prm)
		if pc.FreqMHz == platform.X86FreqMHz {
			nat = workload.TCPRRNative(platform.X86Machine(false), prm)
		}
		measured = workload.TCPRRVirt(f[label](), prm).TimePerTransUs / nat.TimePerTransUs
	case "TCP_STREAM":
		measured = workload.Normalized(workload.TCPStream(pc, prm, false), workload.TCPStream(pc, prm, true))
	case "TCP_MAERTS":
		measured = workload.Normalized(workload.TCPMaerts(pc, prm, false, false), workload.TCPMaerts(pc, prm, true, false))
	case "Apache":
		measured = workload.Apache().Overhead(pc, distributed)
	case "Memcached":
		measured = workload.Memcached().Overhead(pc, distributed)
	case "MySQL":
		measured = workload.MySQL().Overhead(pc, distributed)
	default:
		panic("bench: unknown workload " + w)
	}
	return Cell{Paper: PaperFigure4[w][label], Measured: measured, Approx: !Figure4Exact[w][label]}
}

// Render formats Figure 4 as a table (the paper plots it as a bar chart).
func (r Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: Application Benchmark Performance\n")
	b.WriteString("(normalized: 1.0 = native, higher = more overhead; measured/paper, ~ = paper value read off chart)\n")
	fmt.Fprintf(&b, "%-13s", "Workload")
	for _, l := range Platforms {
		fmt.Fprintf(&b, " %16s", l)
	}
	b.WriteString("\n")
	for _, w := range Workloads {
		fmt.Fprintf(&b, "%-13s", w)
		for _, l := range Platforms {
			c := r.Cells[w][l]
			switch {
			case c.NA:
				fmt.Fprintf(&b, " %16s", "n/a (crash)")
			case c.Approx:
				fmt.Fprintf(&b, "    %5.2f /~%5.2f", c.Measured, c.Paper)
			default:
				fmt.Fprintf(&b, "    %5.2f / %5.2f", c.Measured, c.Paper)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Rows enumerates normalized overheads workload-major in paper order,
// skipping configurations the paper could not run.
func (r Figure4Result) Rows() []Row {
	var rows []Row
	for _, w := range Workloads {
		for _, l := range Platforms {
			c := r.Cells[w][l]
			if c.NA {
				continue
			}
			rows = append(rows, row("overhead", c.Measured, "x native", "workload", w, "platform", l))
			rows = append(rows, row("paper_overhead", c.Paper, "x native", "workload", w, "platform", l))
		}
	}
	return rows
}

// VirqDistributionResult is the §V in-text experiment.
type VirqDistributionResult struct {
	// Cells[workload][platform] = {concentrated, distributed} overhead.
	Cells map[string]map[string][2]float64
}

// RunVirqDistribution regenerates the virtual-interrupt distribution
// experiment on the ARM platforms.
func RunVirqDistribution() VirqDistributionResult {
	f := Factories()
	out := VirqDistributionResult{Cells: map[string]map[string][2]float64{}}
	for _, w := range []string{"Apache", "Memcached"} {
		out.Cells[w] = map[string][2]float64{}
	}
	for _, label := range []string{"KVM ARM", "Xen ARM"} {
		pc := micro.MeasurePathCosts(f[label])
		out.Cells["Apache"][label] = [2]float64{
			workload.Apache().Overhead(pc, false), workload.Apache().Overhead(pc, true)}
		out.Cells["Memcached"][label] = [2]float64{
			workload.Memcached().Overhead(pc, false), workload.Memcached().Overhead(pc, true)}
	}
	return out
}

// Render formats the experiment with the paper's in-text numbers.
func (r VirqDistributionResult) Render() string {
	var b strings.Builder
	b.WriteString("Virtual interrupt distribution (overhead, concentrated -> distributed; measured vs paper)\n")
	for _, w := range []string{"Apache", "Memcached"} {
		for _, l := range []string{"KVM ARM", "Xen ARM"} {
			m := r.Cells[w][l]
			p := PaperVirqDistribution[w][l]
			fmt.Fprintf(&b, "%-10s %-8s measured %.2f -> %.2f   paper %.2f -> %.2f\n",
				w, l, m[0], m[1], p[0], p[1])
		}
	}
	return b.String()
}

// Rows enumerates the concentrated and distributed overheads.
func (r VirqDistributionResult) Rows() []Row {
	var rows []Row
	for _, w := range []string{"Apache", "Memcached"} {
		for _, l := range []string{"KVM ARM", "Xen ARM"} {
			m := r.Cells[w][l]
			rows = append(rows,
				row("overhead", m[0], "x native", "workload", w, "platform", l, "virq", "concentrated"),
				row("overhead", m[1], "x native", "workload", w, "platform", l, "virq", "distributed"))
		}
	}
	return rows
}

// VHEResult is the §VI projection.
type VHEResult struct {
	// Micro[name] = {split-mode, VHE, Xen} cycles.
	Micro map[string][3]float64
	// ApacheOverhead = {split-mode, VHE}.
	ApacheOverhead [2]float64
	// TCPRRTimeUs = {split-mode, VHE}.
	TCPRRTimeUs [2]float64
}

// RunVHE regenerates the §VI projection: KVM ARM with the ARMv8.1
// Virtualization Host Extensions against split-mode KVM ARM and Xen ARM.
func RunVHE() VHEResult {
	f := Factories()
	out := VHEResult{Micro: map[string][3]float64{}}
	base := micro.RunAll(f["KVM ARM"])
	vhe := micro.RunAll(f["KVM ARM (VHE)"])
	xen := micro.RunAll(f["Xen ARM"])
	for i, r := range base {
		out.Micro[r.Name] = [3]float64{float64(r.Cycles), float64(vhe[i].Cycles), float64(xen[i].Cycles)}
	}
	pcBase := micro.PathCostsFrom(f["KVM ARM"], base)
	pcVHE := micro.PathCostsFrom(f["KVM ARM (VHE)"], vhe)
	out.ApacheOverhead = [2]float64{
		workload.Apache().Overhead(pcBase, false), workload.Apache().Overhead(pcVHE, false)}
	prm := workload.DefaultParams()
	out.TCPRRTimeUs = [2]float64{
		workload.TCPRRVirt(f["KVM ARM"](), prm).TimePerTransUs,
		workload.TCPRRVirt(f["KVM ARM (VHE)"](), prm).TimePerTransUs,
	}
	return out
}

// Rows enumerates the microbenchmark columns and the workload projections.
func (r VHEResult) Rows() []Row {
	var rows []Row
	cfgs := []string{"split-mode", "VHE", "Xen ARM"}
	for _, name := range Micros {
		m := r.Micro[name]
		for i, cfg := range cfgs {
			rows = append(rows, row("cycles", m[i], "cycles", "benchmark", name, "config", cfg))
		}
	}
	rows = append(rows,
		row("apache_overhead", r.ApacheOverhead[0], "x native", "config", "split-mode"),
		row("apache_overhead", r.ApacheOverhead[1], "x native", "config", "VHE"),
		row("tcprr_time_per_trans", r.TCPRRTimeUs[0], "us", "config", "split-mode"),
		row("tcprr_time_per_trans", r.TCPRRTimeUs[1], "us", "config", "VHE"))
	return rows
}

// Render formats the VHE projection.
func (r VHEResult) Render() string {
	var b strings.Builder
	b.WriteString("ARMv8.1 VHE projection (§VI): KVM ARM split-mode vs KVM ARM (VHE) vs Xen ARM\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "Microbenchmark (cycles)", "split-mode", "VHE", "Xen ARM")
	for _, name := range Micros {
		m := r.Micro[name]
		fmt.Fprintf(&b, "%-28s %12.0f %12.0f %12.0f\n", name, m[0], m[1], m[2])
	}
	fmt.Fprintf(&b, "Hypercall improvement: %.1fx (paper: 'more than an order of magnitude')\n",
		r.Micro["Hypercall"][0]/r.Micro["Hypercall"][1])
	fmt.Fprintf(&b, "Apache overhead: %.2f -> %.2f (%.0f%% improvement; paper projects 10-20%% on I/O workloads)\n",
		r.ApacheOverhead[0], r.ApacheOverhead[1],
		100*(r.ApacheOverhead[0]-r.ApacheOverhead[1])/r.ApacheOverhead[0])
	fmt.Fprintf(&b, "TCP_RR time/trans: %.1fus -> %.1fus\n", r.TCPRRTimeUs[0], r.TCPRRTimeUs[1])
	return b.String()
}
