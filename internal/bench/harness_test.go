package bench

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"armvirt/internal/hyp"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/workload"
)

func TestTableIIMatchesPaper(t *testing.T) {
	res := RunTableII()
	for _, label := range Platforms {
		for _, name := range Micros {
			c := res.Cells[label][name]
			if d := math.Abs(c.DeltaPct()); d > 2 {
				t.Errorf("%s / %s: measured %.0f vs paper %.0f (%.1f%%)",
					label, name, c.Measured, c.Paper, d)
			}
		}
	}
}

func TestTableIIIMatchesPaperExactly(t *testing.T) {
	res := RunTableIII()
	for cls, want := range PaperTableIII {
		got := res.SaveRestore[cls]
		if got != want {
			t.Errorf("%s: measured %v vs paper %v", cls, got, want)
		}
	}
	if res.Other <= 0 || res.Other > 0.15*res.Total {
		t.Errorf("non-state cost = %.0f of %.0f; §IV says state movement is 'almost all' of the hypercall",
			res.Other, res.Total)
	}
}

func TestTableVMatchesPaper(t *testing.T) {
	res := RunTableV()
	for _, name := range TableVOrder {
		m := res.row(name)
		p := PaperTableV[name]
		for i, col := range []string{"Native", "KVM", "Xen"} {
			if p[i] < 0 {
				continue
			}
			d := math.Abs(m[i]-p[i]) / p[i]
			// The per-leg probes are calibrated tightly; the totals
			// inherit the paper's own internal inconsistency (its legs
			// do not sum to its totals), so allow 8% there.
			tol := 0.02
			if name == "Trans/s" || name == "Time/trans (us)" {
				tol = 0.08
			}
			if d > tol {
				t.Errorf("Table V %s [%s]: measured %.1f vs paper %.1f (%.1f%%)",
					name, col, m[i], p[i], 100*d)
			}
		}
	}
}

func TestFigure4ShapesMatchPaper(t *testing.T) {
	res := RunFigure4(false)
	// Exact in-text cells within 3%; chart-read cells within 25% or 0.15
	// absolute, whichever is looser.
	for _, w := range Workloads {
		for _, l := range Platforms {
			c := res.Cells[w][l]
			if c.NA {
				continue
			}
			relTol, absTol := 0.03, 0.0
			if c.Approx {
				relTol, absTol = 0.25, 0.15
			}
			rel := math.Abs(c.Measured-c.Paper) / c.Paper
			abs := math.Abs(c.Measured - c.Paper)
			if rel > relTol && abs > absTol {
				t.Errorf("Figure 4 %s/%s: measured %.2f vs paper %.2f", w, l, c.Measured, c.Paper)
			}
		}
	}
	// Xen x86 Apache is n/a, as in the paper.
	if !res.Cells["Apache"]["Xen x86"].NA {
		t.Error("Xen x86 Apache should be n/a (Dom0 crash in the paper)")
	}
}

func TestFigure4QualitativeConclusions(t *testing.T) {
	res := RunFigure4(false)
	get := func(w, l string) float64 { return res.Cells[w][l].Measured }
	// §V: KVM ARM meets or exceeds Xen ARM on the I/O workloads despite
	// Xen's faster transitions.
	for _, w := range []string{"TCP_RR", "TCP_STREAM", "TCP_MAERTS", "Apache", "Memcached"} {
		if get(w, "KVM ARM") > get(w, "Xen ARM") {
			t.Errorf("%s: KVM ARM (%.2f) should beat Xen ARM (%.2f)", w, get(w, "KVM ARM"), get(w, "Xen ARM"))
		}
	}
	// §V: Xen ARM beats KVM ARM on Hackbench (virtual IPIs), by a small
	// margin.
	if get("Hackbench", "Xen ARM") >= get("Hackbench", "KVM ARM") {
		t.Error("Hackbench: Xen ARM should beat KVM ARM")
	}
	// CPU-bound workloads: all platforms close to native.
	for _, w := range []string{"Kernbench", "SPECjvm2008"} {
		for _, l := range Platforms {
			if get(w, l) > 1.10 {
				t.Errorf("%s/%s overhead %.2f too large for a CPU-bound workload", w, l, get(w, l))
			}
		}
	}
	// §V conclusion: ARM hypervisors achieve similar, in some cases
	// lower, overhead than x86 counterparts on real applications —
	// check the STREAM case where KVM ARM matches KVM x86.
	if math.Abs(get("TCP_STREAM", "KVM ARM")-get("TCP_STREAM", "KVM x86")) > 0.1 {
		t.Error("KVM ARM and KVM x86 should be comparable on TCP_STREAM")
	}
}

func TestVirqDistributionMatchesInText(t *testing.T) {
	res := RunVirqDistribution()
	for w, rows := range PaperVirqDistribution {
		for l, want := range rows {
			got := res.Cells[w][l]
			for i := 0; i < 2; i++ {
				if math.Abs(got[i]-want[i])/want[i] > 0.03 {
					t.Errorf("%s/%s[%d]: measured %.2f vs paper %.2f", w, l, i, got[i], want[i])
				}
			}
		}
	}
}

func TestVHEProjection(t *testing.T) {
	res := RunVHE()
	hyp := res.Micro["Hypercall"]
	if hyp[0] < 10*hyp[1] {
		t.Errorf("VHE hypercall improvement %.1fx, want >10x", hyp[0]/hyp[1])
	}
	// VHE brings KVM near (but not below) Xen's Type 1 hypercall.
	if hyp[1] < hyp[2] {
		t.Errorf("VHE KVM (%.0f) should not beat Xen's EL2-resident hypercall (%.0f)", hyp[1], hyp[2])
	}
	if hyp[1] > 2*hyp[2] {
		t.Errorf("VHE KVM (%.0f) should approach Xen (%.0f)", hyp[1], hyp[2])
	}
	// §VI: I/O Latency Out improves dramatically; VHE KVM beats Xen,
	// which still pays the Dom0 round trip.
	ioOut := res.Micro["I/O Latency Out"]
	if ioOut[1] >= ioOut[0]/3 || ioOut[1] >= ioOut[2] {
		t.Errorf("VHE I/O Latency Out %.0f should be far below split-mode %.0f and Xen %.0f",
			ioOut[1], ioOut[0], ioOut[2])
	}
	// Application improvement lands in (or near) the projected 10-20%.
	gain := (res.ApacheOverhead[0] - res.ApacheOverhead[1]) / res.ApacheOverhead[0]
	if gain < 0.08 || gain > 0.30 {
		t.Errorf("VHE Apache gain %.0f%%, paper projects 10-20%%", gain*100)
	}
	if res.TCPRRTimeUs[1] >= res.TCPRRTimeUs[0] {
		t.Error("VHE should improve TCP_RR latency")
	}
}

func TestDiskExtensionOrdering(t *testing.T) {
	r := RunDisk()
	if !(r.Native.MeanLatencyUs < r.KVM.MeanLatencyUs && r.KVM.MeanLatencyUs < r.Xen.MeanLatencyUs) {
		t.Errorf("disk latency ordering: native %.1f, KVM %.1f, Xen %.1f",
			r.Native.MeanLatencyUs, r.KVM.MeanLatencyUs, r.Xen.MeanLatencyUs)
	}
	if r.VHE.MeanLatencyUs >= r.KVM.MeanLatencyUs {
		t.Errorf("VHE disk latency %.1f should beat split-mode %.1f",
			r.VHE.MeanLatencyUs, r.KVM.MeanLatencyUs)
	}
	if r.Xen.MeanLatencyUs >= r.XenMapUnmap.MeanLatencyUs {
		t.Errorf("persistent grants %.1f should beat map/unmap %.1f",
			r.Xen.MeanLatencyUs, r.XenMapUnmap.MeanLatencyUs)
	}
}

func TestValidationsAgree(t *testing.T) {
	for _, row := range RunValidations().Checks {
		if d := math.Abs(row.DeltaPct()); d > 10 {
			t.Errorf("%s: analytic %.2f vs DES %.2f (%.1f%% apart)",
				row.Name, row.Analytic, row.DES, d)
		}
	}
}

func TestSensitivityConclusionsRobust(t *testing.T) {
	res := RunSensitivity(20, 0.20, 42)
	for _, c := range Conclusions {
		frac := float64(res.Held[c]) / float64(res.Samples)
		// The I/O Latency In ordering is genuinely close in the paper
		// (13,872 vs 15,650 cycles: 13% apart), so ±20% perturbation may
		// occasionally flip it; everything else must be near-universal.
		min := 0.95
		if c == "Xen ARM I/O Latency In above KVM ARM" {
			min = 0.70
		}
		if frac < min {
			t.Errorf("%q held in only %.0f%% of samples", c, frac*100)
		}
	}
}

func TestSensitivityDeterministic(t *testing.T) {
	a := RunSensitivity(5, 0.2, 7)
	b := RunSensitivity(5, 0.2, 7)
	for c, n := range a.Held {
		if b.Held[c] != n {
			t.Fatalf("sensitivity nondeterministic for %q", c)
		}
	}
}

// TestSensitivityPathsMatchMeasurePathCosts: R1 measures the fields its
// conclusions read exactly as micro.MeasurePathCosts does for F4, X1, F5
// and V1, at the calibrated point (against the platform registry's own
// builds) and at two perturbed draws.
func TestSensitivityPathsMatchMeasurePathCosts(t *testing.T) {
	type pair struct {
		name      string
		r1, suite func() hyp.Hypervisor
	}
	cases := []pair{
		{"calibrated KVM ARM", kvmARMAt(platform.KVMARMCosts()), func() hyp.Hypervisor { return platform.NewKVMARM().Hyp() }},
		{"calibrated Xen ARM", xenARMAt(platform.XenARMCosts()), func() hyp.Hypervisor { return platform.NewXenARM().Hyp() }},
	}
	for _, seed := range []int64{7, 42} {
		kc := perturbedKVMARM(rand.New(rand.NewSource(seed)), 0.20)
		xc := perturbedXenARM(rand.New(rand.NewSource(seed)), 0.20)
		name := "seed " + strconv.FormatInt(seed, 10)
		cases = append(cases,
			pair{name + " KVM ARM", kvmARMAt(kc), kvmARMAt(kc)},
			pair{name + " Xen ARM", xenARMAt(xc), xenARMAt(xc)})
	}
	for _, c := range cases {
		got := measureConclusionPaths(c.r1)
		want := micro.MeasurePathCosts(c.suite)
		want.GICTrap, want.VirqComplete, want.VMSwitch = 0, 0, 0
		if got != want {
			t.Errorf("%s: R1 measured %+v, MeasurePathCosts %+v", c.name, got, want)
		}
	}
}

func TestVAPICClosesCompletionGapAtAppLevel(t *testing.T) {
	// §IV: vAPIC brings x86 interrupt completion near ARM's; the
	// serving workloads (whose per-event cost includes completion)
	// improve accordingly.
	base := micro.MeasurePathCosts(func() hyp.Hypervisor { return platform.NewKVMX86().Hyp() })
	vapic := micro.MeasurePathCosts(func() hyp.Hypervisor { return platform.NewKVMX86VAPIC().Hyp() })
	if vapic.VirqComplete >= base.VirqComplete/5 {
		t.Errorf("vAPIC completion %d vs %d; should collapse", vapic.VirqComplete, base.VirqComplete)
	}
	m := workload.Memcached()
	if m.Overhead(vapic, false) > m.Overhead(base, false) {
		t.Error("vAPIC should not worsen memcached")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	for name, s := range map[string]string{
		"tableII":    RunTableII().Render(),
		"tableIII":   RunTableIII().Render(),
		"tableV":     RunTableV().Render(),
		"figure4":    RunFigure4(false).Render(),
		"virqdist":   RunVirqDistribution().Render(),
		"vhe":        RunVHE().Render(),
		"disk":       RunDisk().Render(),
		"memory":     RunMemory().Render(),
		"validation": RunValidations().Render(),
		"tableI":     RenderTableI(),
		"tableIV":    RenderTableIV(),
	} {
		if len(s) < 100 || !strings.Contains(s, "\n") {
			t.Errorf("%s render too short: %q", name, s)
		}
	}
}
