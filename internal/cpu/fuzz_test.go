package cpu_test

import (
	"math"
	"reflect"
	"testing"

	"armvirt/internal/cpu"
	"armvirt/internal/platform"
)

// calibratedModels returns the hardware cost models of the five paper
// platforms.
func calibratedModels() []cpu.CostModel {
	var out []cpu.CostModel
	for _, p := range []*platform.Platform{
		platform.NewKVMARM(), platform.NewXenARM(), platform.NewKVMX86(),
		platform.NewXenX86(), platform.NewKVMARMVHE(),
	} {
		out = append(out, *p.Machine.Cost)
	}
	return out
}

// cycleSlots returns every cycle cost in cm — each Cycles field and each
// register class's save and restore — found by reflection, so the oracle
// does not share Validate's hand-written list.
func cycleSlots(cm *cpu.CostModel) []reflect.Value {
	cyclesType := reflect.TypeOf(cpu.Cycles(0))
	var out []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch {
		case v.Type() == cyclesType:
			out = append(out, v)
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(cm).Elem())
	return out
}

// FuzzCostModelValidate starts from a calibrated platform model, sets its
// frequency, its copy rate and one cycle cost, and checks Validate never
// panics and accepts the model exactly when FreqMHz > 0, every cycle cost
// is >= 0, and CopyPerByte is finite and >= 0. The seed corpus runs as
// part of the ordinary test suite.
func FuzzCostModelValidate(f *testing.F) {
	models := calibratedModels()
	for i, cm := range models {
		f.Add(uint8(i), cm.FreqMHz, cm.CopyPerByte, uint8(0), int64(cm.TrapToEL2))
	}
	arm := models[0]
	f.Add(uint8(0), arm.FreqMHz, math.NaN(), uint8(0), int64(arm.TrapToEL2))
	f.Add(uint8(0), arm.FreqMHz, math.Inf(1), uint8(0), int64(arm.TrapToEL2))
	// A negative cost in each slot, the register classes' included.
	for i := range cycleSlots(&arm) {
		f.Add(uint8(0), arm.FreqMHz, arm.CopyPerByte, uint8(i), int64(-5))
	}
	f.Fuzz(func(t *testing.T, model uint8, freq int, copyPerByte float64, slot uint8, v int64) {
		cm := models[int(model)%len(models)]
		cm.FreqMHz = freq
		cm.CopyPerByte = copyPerByte
		slots := cycleSlots(&cm)
		slots[int(slot)%len(slots)].SetInt(v)

		finite := !math.IsNaN(copyPerByte) && !math.IsInf(copyPerByte, 0)
		want := freq > 0 && finite && copyPerByte >= 0
		for _, s := range slots {
			want = want && s.Int() >= 0
		}
		if err := cm.Validate(); (err == nil) != want {
			t.Fatalf("Validate() = %v on FreqMHz %d, CopyPerByte %g, slot %d = %d; want accepted = %v",
				err, freq, copyPerByte, int(slot)%len(slots), v, want)
		}
	})
}
