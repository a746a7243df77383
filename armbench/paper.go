package main

import (
	"armvirt/internal/bench"
	"armvirt/internal/core"
)

// tableII is the paper's Table II (cycles), transcribed from the published
// paper rather than taken from the program, so the check stays independent
// of the code it checks.
var tableII = map[string]map[string]float64{
	"KVM ARM": {
		"Hypercall": 6500, "Interrupt Controller Trap": 7370, "Virtual IPI": 11557,
		"Virtual IRQ Completion": 71, "VM Switch": 10387, "I/O Latency Out": 6024, "I/O Latency In": 13872,
	},
	"Xen ARM": {
		"Hypercall": 376, "Interrupt Controller Trap": 1356, "Virtual IPI": 5978,
		"Virtual IRQ Completion": 71, "VM Switch": 8799, "I/O Latency Out": 16491, "I/O Latency In": 15650,
	},
	"KVM x86": {
		"Hypercall": 1300, "Interrupt Controller Trap": 2384, "Virtual IPI": 5230,
		"Virtual IRQ Completion": 1556, "VM Switch": 4812, "I/O Latency Out": 560, "I/O Latency In": 18923,
	},
	"Xen x86": {
		"Hypercall": 1228, "Interrupt Controller Trap": 1734, "Virtual IPI": 5562,
		"Virtual IRQ Completion": 1464, "VM Switch": 10534, "I/O Latency Out": 11262, "I/O Latency In": 10050,
	},
}

// tableV is the Trans/s and Time/trans rows of the paper's Table V
// (Netperf TCP_RR on ARM), by configuration.
var tableV = map[string]map[string]float64{
	"Trans/s":         {"Native": 23911, "KVM": 11591, "Xen": 10253},
	"Time/trans (us)": {"Native": 41.8, "KVM": 86.3, "Xen": 97.5},
}

// Tolerances of the model against the paper: Table II is calibrated
// exactly, Table V is an emergent end-to-end figure.
const (
	tableIITol = 0.02
	tableVTol  = 0.08
)

// profileOps maps P1's profiled ops to the Table II row that measures the
// same operation.
var profileOps = map[string]string{
	"hypercall":    "Hypercall",
	"gictrap":      "Interrupt Controller Trap",
	"vmswitch":     "VM Switch",
	"virqcomplete": "Virtual IRQ Completion",
}

func relErr(got, want float64) float64 {
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}

// checkStudy checks one pass's reports against the paper and against
// themselves: all fourteen present without error, Table II within 2%,
// Table V's Trans/s and Time/trans within 8%, and every P1 profile total
// equal both to the sum of its phases and to that op's Table II cycles as
// the model measured them.
func checkStudy(r *report, reps []core.Report) {
	if len(reps) != len(studyIDs) {
		r.fail("study: %d reports, want %d", len(reps), len(studyIDs))
		return
	}
	byID := make(map[string][]bench.Row, len(reps))
	for i, rep := range reps {
		if rep.ID != studyIDs[i] {
			r.fail("study: report %d is %s, want %s", i, rep.ID, studyIDs[i])
		}
		if rep.Err != nil || rep.Result == nil {
			r.fail("study: %s failed: %v", rep.ID, rep.Err)
			continue
		}
		byID[rep.ID] = rep.Result.Rows()
	}

	seen := 0
	measured := make(map[[2]string]float64)
	for _, row := range byID["T2"] {
		if row.Metric != "cycles" {
			continue
		}
		pl, bm := row.Labels["platform"], row.Labels["benchmark"]
		measured[[2]string{pl, bm}] = row.Value
		want, ok := tableII[pl][bm]
		if !ok {
			r.fail("T2: unexpected row %s / %s", pl, bm)
			continue
		}
		seen++
		if e := relErr(row.Value, want); e > tableIITol {
			r.fail("T2 %s %s: %.0f cycles, paper %.0f (off %.1f%%)", pl, bm, row.Value, want, 100*e)
		}
	}
	if seen != 28 {
		r.fail("T2: %d of 28 Table II cells present", seen)
	}

	seen = 0
	for _, row := range byID["T5"] {
		want, ok := tableV[row.Metric][row.Labels["config"]]
		if !ok {
			continue
		}
		seen++
		if e := relErr(row.Value, want); e > tableVTol {
			r.fail("T5 %s %s: %.1f, paper %.1f (off %.1f%%)", row.Metric, row.Labels["config"], row.Value, want, 100*e)
		}
	}
	if seen != 6 {
		r.fail("T5: %d of 6 Table V Trans/s and Time/trans cells present", seen)
	}

	phases := make(map[[2]string]float64)
	totals := make(map[[2]string]float64)
	for _, row := range byID["P1"] {
		k := [2]string{row.Labels["op"], row.Labels["platform"]}
		switch row.Metric {
		case "phase_cycles":
			phases[k] += row.Value
		case "total_cycles":
			totals[k] = row.Value
		}
	}
	if len(totals) == 0 {
		r.fail("P1: no profile totals")
	}
	for k, total := range totals {
		if phases[k] != total {
			r.fail("P1 %s on %s: phases sum to %.0f, total %.0f", k[0], k[1], phases[k], total)
		}
		if bm, ok := profileOps[k[0]]; ok && measured[[2]string{k[1], bm}] != total {
			r.fail("P1 %s on %s: profile total %.0f, Table II measured %.0f", k[0], k[1], total, measured[[2]string{k[1], bm}])
		}
	}
}

// studyIDs is the registry the study must report, in order: a registry
// that loses or reorders an experiment fails the check.
var studyIDs = []string{"T1", "T2", "T3", "T4", "T5", "F4", "X1", "F5", "E1", "E2", "V1", "P1", "R1", "PD1"}
