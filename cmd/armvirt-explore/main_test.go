package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSweepsMatchGolden runs every sweep and compares its rendered table
// with testdata/<sweep>.golden. Regenerate one deliberately from the repo
// root with
//
//	go run ./cmd/armvirt-explore -sweep vgic > cmd/armvirt-explore/testdata/vgic.golden
func TestSweepsMatchGolden(t *testing.T) {
	for name, run := range sweeps {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := run().Render(); got != string(want) {
				t.Errorf("sweep %s drifted from its golden\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
