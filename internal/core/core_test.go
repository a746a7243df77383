package core

import (
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := map[string]bool{"T1": true, "T2": true, "T3": true, "T4": true,
		"T5": true, "F4": true, "X1": true, "F5": true}
	got := map[string]bool{}
	for _, e := range Experiments() {
		if e.Kind == PaperArtifact || e.Kind == InText || e.Kind == Projection {
			got[e.ID] = true
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("paper artifact %s missing from the registry", id)
		}
	}
}

func TestByID(t *testing.T) {
	if e := ByID("T2"); e == nil || !strings.Contains(e.Title, "Table II") {
		t.Fatal("ByID(T2) wrong")
	}
	if ByID("nope") != nil {
		t.Fatal("unknown ID should be nil")
	}
}

func TestKindStrings(t *testing.T) {
	for k, s := range map[Kind]string{
		PaperArtifact: "paper artifact", InText: "in-text result",
		Projection: "projection", Extension: "extension", Validation: "validation",
		Kind(99): "unknown",
	} {
		if k.String() != s {
			t.Errorf("%d -> %q", int(k), k.String())
		}
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Experiments() {
		res := e.Run()
		if body := res.Render(); len(body) < 50 {
			t.Errorf("%s produced a suspiciously short report (%d bytes)", e.ID, len(body))
		}
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByIDFindsEveryRegisteredExperiment(t *testing.T) {
	for _, e := range Experiments() {
		got := ByID(e.ID)
		if got == nil || got.Title != e.Title {
			t.Errorf("ByID(%s) = %v, want %q", e.ID, got, e.Title)
		}
	}
}

func TestDataRowsPresentForMeasuredExperiments(t *testing.T) {
	// T1 and T4 are static definitions; every other experiment must expose
	// machine-readable rows.
	static := map[string]bool{"T1": true, "T4": true}
	for _, e := range Experiments() {
		rows := e.Run().Rows()
		if static[e.ID] {
			if len(rows) != 0 {
				t.Errorf("%s: static experiment should have no rows, got %d", e.ID, len(rows))
			}
			continue
		}
		if len(rows) == 0 {
			t.Errorf("%s exposes no data rows", e.ID)
		}
	}
}
