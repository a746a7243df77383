package analysis

import "testing"

// TestLayeringFixtures covers all three rules: a deterministic package
// importing the wall tier (sched/layerbad), a wall-tier package
// reaching engine internals with a seam import alongside as the
// negative (serve/deep), and a package importing the vet implementation
// (vetimport).
func TestLayeringFixtures(t *testing.T) {
	runFixtures(t, Layering, "sched/layerbad", "serve/deep", "vetimport")
}

// TestLayerFrag pins the path-fragment extraction the rules match on:
// real module paths, bare fixture paths, and everything that must map
// to no fragment at all (stdlib, external modules, command roots).
func TestLayerFrag(t *testing.T) {
	for path, want := range map[string]string{
		"armvirt/internal/serve":    "serve",
		"armvirt/internal/hyp/kvm":  "hyp",
		"armvirt/internal/runlog":   "runlog",
		"armvirt/cmd/armvirt-serve": "",
		"armvirt":                   "",
		"serve":                     "serve",
		"sched/layerbad":            "sched",
		"os":                        "os",
		"path/filepath":             "path",
		"golang.org/x/tools/go/ssa": "",
		"github.com/acme/thing/pkg": "",
	} {
		if got := layerFrag(path); got != want {
			t.Errorf("layerFrag(%q) = %q, want %q", path, got, want)
		}
	}
	if !layerWall("armvirt/internal/runlog") || layerWall("armvirt/internal/sim") {
		t.Error("layerWall misclassifies runlog or sim")
	}
}
