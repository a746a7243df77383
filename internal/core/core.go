// Package core is the paper's primary contribution made executable: the
// measurement study itself. It registers every experiment the paper
// reports — each table, figure, and in-text result — together with the
// extensions and validations this reproduction adds, as a single ordered
// registry that tools and tests enumerate.
//
// The hypervisor and hardware models live below (internal/hyp, internal/hw,
// ...); the workload and microbenchmark logic beside (internal/micro,
// internal/workload); the harness in internal/bench. This package is the
// study's table of contents: run everything, in paper order, and render
// paper-vs-measured.
package core

import (
	"sync"

	"armvirt/internal/bench"
)

// Result is the structured output of an experiment; see bench.Result.
type Result = bench.Result

// Kind classifies an experiment.
type Kind int

// Experiment kinds.
const (
	// PaperArtifact regenerates a numbered table or figure.
	PaperArtifact Kind = iota
	// InText regenerates a result stated in the paper's prose.
	InText
	// Projection regenerates a forward-looking claim (§VI's VHE).
	Projection
	// Extension goes beyond the paper using the same models.
	Extension
	// Validation cross-checks a model against a simulation.
	Validation
)

func (k Kind) String() string {
	switch k {
	case PaperArtifact:
		return "paper artifact"
	case InText:
		return "in-text result"
	case Projection:
		return "projection"
	case Extension:
		return "extension"
	case Validation:
		return "validation"
	}
	return "unknown"
}

// Experiment is one entry of the study.
type Experiment struct {
	// ID is the short identifier used across DESIGN.md and tests.
	ID string
	// Title is the display heading.
	Title string
	// Kind classifies the entry.
	Kind Kind
	// Run executes the experiment and returns its structured result.
	// Every invocation builds private platforms and engines, so
	// experiments may run concurrently; see RunAll.
	Run func() Result
}

// Experiments returns the full study in paper order. Every call builds
// fresh platforms; runs are deterministic.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Table I — Microbenchmark Definitions", PaperArtifact,
			func() Result { return bench.Text(bench.RenderTableI()) }},
		{"T2", "Table II — Microbenchmark Measurements", PaperArtifact,
			func() Result { return bench.RunTableII() }},
		{"T3", "Table III — KVM ARM Hypercall Analysis", PaperArtifact,
			func() Result { return bench.RunTableIII() }},
		{"T4", "Table IV — Application Benchmark Definitions", PaperArtifact,
			func() Result { return bench.Text(bench.RenderTableIV()) }},
		{"T5", "Table V — Netperf TCP_RR Analysis on ARM", PaperArtifact,
			func() Result { return bench.RunTableV() }},
		{"F4", "Figure 4 — Application Benchmark Performance", PaperArtifact,
			func() Result { return bench.RunFigure4(false) }},
		{"X1", "In-text — Virtual Interrupt Distribution", InText,
			func() Result { return bench.RunVirqDistribution() }},
		{"F5", "Section VI — ARMv8.1 VHE Projection", Projection,
			func() Result { return bench.RunVHE() }},
		{"E1", "Extension — Block I/O Path", Extension,
			func() Result { return bench.RunDisk() }},
		{"E2", "Extension — Stage-2 Fault Warm-up", Extension,
			func() Result { return bench.RunMemory() }},
		{"V1", "Model Validation — Closed Forms vs Simulation", Validation,
			func() Result { return bench.RunValidations() }},
		{"P1", "Extension — Per-Phase Cycle Attribution", Extension,
			func() Result { return bench.RunPhaseBreakdowns(nil, nil, 1) }},
		{"R1", "Robustness — Calibration Sensitivity", Validation,
			func() Result { return bench.RunSensitivity(40, 0.20, 1) }},
		{"PD1", "Extension — Partitioned-Engine Fleet", Extension,
			func() Result { return bench.RunFleet() }},
	}
}

var (
	indexOnce sync.Once
	indexByID map[string]int
)

// ByID returns the experiment with the given ID, or nil. Lookup is
// map-backed; the index is built once from the registry.
func ByID(id string) *Experiment {
	indexOnce.Do(func() {
		indexByID = make(map[string]int)
		for i, e := range Experiments() {
			indexByID[e.ID] = i
		}
	})
	i, ok := indexByID[id]
	if !ok {
		return nil
	}
	e := Experiments()[i]
	return &e
}
