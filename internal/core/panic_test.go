package core

import (
	"strings"
	"testing"

	"armvirt/internal/sim"
)

// TestRunOneRecoversPanic pins the recovery contract the serve layer and
// armvirt-report rely on: a panicking experiment comes back as a Report
// error naming the experiment, not a crashed process, and the registry
// keeps working afterwards.
func TestRunOneRecoversPanic(t *testing.T) {
	bad := Experiment{
		ID:    "PANIC",
		Title: "deliberately panicking experiment",
		Kind:  Extension,
		Run:   func() Result { panic("engine exploded") },
	}
	rep := RunOne(bad)
	if rep.Err == nil {
		t.Fatal("RunOne(panicking experiment) returned nil error")
	}
	for _, want := range []string{"PANIC", "deliberately panicking experiment", "engine exploded"} {
		if !strings.Contains(rep.Err.Error(), want) {
			t.Errorf("error %q does not mention %q", rep.Err, want)
		}
	}
	if rep.Result != nil {
		t.Errorf("panicking experiment produced a result: %v", rep.Result)
	}
	if rep.ID != "PANIC" {
		t.Errorf("report identity = %q, want the failed experiment's", rep.ID)
	}

	// The registry is untouched and still runnable after the recovery.
	e := ByID("T1")
	if e == nil {
		t.Fatal("ByID(T1) = nil after a recovered panic")
	}
	good := RunOne(*e)
	if good.Err != nil || good.Result == nil {
		t.Fatalf("registry experiment failed after recovery: err=%v result=%v", good.Err, good.Result)
	}
}

// TestRunOneRecoversFiberPanic: a panic inside a simulated process body
// runs on the process's own goroutine; the engine re-raises it on the
// goroutine that called Run, so RunOne reports it like any other panic.
func TestRunOneRecoversFiberPanic(t *testing.T) {
	bad := Experiment{
		ID:    "FIBER",
		Title: "panicking process body",
		Kind:  Extension,
		Run: func() Result {
			e := sim.NewEngine()
			e.Go("boom", func(p *sim.Proc) {
				p.Sleep(1)
				panic("proc boom")
			})
			e.Run()
			return nil
		},
	}
	rep := RunOne(bad)
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "proc boom") {
		t.Fatalf("RunOne(fiber panic) error = %v, want it to carry the panic", rep.Err)
	}
}
