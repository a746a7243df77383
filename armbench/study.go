package main

import (
	"bytes"
	"context"
	"strings"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/core"
)

// renderText renders reports as armvirt-report's default text output.
func renderText(reps []core.Report) []byte {
	var b bytes.Buffer
	rule := strings.Repeat("=", 100)
	for _, rep := range reps {
		if rep.Err != nil {
			continue
		}
		b.WriteString(rule + "\n" + rep.Title + "\n" + rule + "\n")
		b.WriteString(rep.Result.Render() + "\n")
	}
	return b.Bytes()
}

// jsonPass is one armvirt-report -json pass at parallelism j.
func jsonPass(j int) ([]core.Report, []byte) {
	reps := core.RunAll(context.Background(), j)
	var buf bytes.Buffer
	bench.WriteJSON(&buf, reps)
	return reps, buf.Bytes()
}

// expCost is what one experiment's core.RunOne cost in a traced pass.
type expCost struct {
	ms, allocMB float64
}

// tracedPass is a -j 1 JSON pass run experiment by experiment, with a
// span around each core.RunOne and around the render. It also returns
// each experiment's wall time and heap allocation. With a nil tracer it
// is the same pass untraced.
func tracedPass(tr *tracer) ([]core.Report, []byte, []expCost) {
	tr.newGroup()
	root := tr.begin("bench", "study.pass")
	exps := core.Experiments()
	reps := make([]core.Report, len(exps))
	costs := make([]expCost, len(exps))
	for i, e := range exps {
		h := tr.begin("exp", "exp."+e.ID)
		t := time.Now()
		costs[i].allocMB = allocMB(func() { reps[i] = core.RunOne(e) })
		costs[i].ms = ms(time.Since(t))
		tr.end(h)
	}
	var buf bytes.Buffer
	tr.wrap("render", "render.json", func() { bench.WriteJSON(&buf, reps) })
	tr.end(root)
	return reps, buf.Bytes(), costs
}

// countFailed counts the reports that came back with an error.
func countFailed(reps []core.Report) int {
	n := 0
	for _, rep := range reps {
		if rep.Err != nil {
			n++
		}
	}
	return n
}

// runStudy is the study workload: what a user of armvirt-report waits on.
// Modes, interleaved: A = JSON pass at -j 1, B = JSON pass at -j nproc,
// C = the text report at -j nproc. Every pass must render the bytes of
// the set-up pass, which is itself checked against the paper.
func runStudy(cfg config) *report {
	r := newReport("study")
	reps, ref := jsonPass(cfg.nproc)
	checkStudy(r, reps)
	refText := renderText(reps)
	if cfg.setupOnly {
		return r
	}
	pass := func(reps []core.Report, out []byte, want []byte, what string) {
		r.attempted += len(reps)
		r.failed += countFailed(reps)
		if !bytes.Equal(out, want) {
			r.fail("study: %s pass output differs from the set-up pass", what)
		}
	}
	if cfg.trace {
		traceRun(cfg, r, func(tr *tracer) {
			reps, out, _ := tracedPass(tr)
			pass(reps, out, ref, "traced -j 1")
		})
		return r
	}

	var a, b, c, alloc []float64
	modes := []func(){
		func() {
			var reps []core.Report
			var out []byte
			var mb float64
			a = append(a, 1e3*gcTime(func() { mb = allocMB(func() { reps, out = jsonPass(1) }) }))
			alloc = append(alloc, mb)
			pass(reps, out, ref, "-j 1")
		},
		func() {
			var reps []core.Report
			var out []byte
			b = append(b, 1e3*gcTime(func() { reps, out = jsonPass(cfg.nproc) }))
			pass(reps, out, ref, "-j nproc")
		},
		func() {
			var reps []core.Report
			var out []byte
			c = append(c, 1e3*gcTime(func() {
				reps = core.RunAll(context.Background(), cfg.nproc)
				out = renderText(reps)
			}))
			pass(reps, out, refText, "text")
		},
	}
	interleave(cfg, modes)
	r.slot("mode_a_ms", "study_j1: JSON pass at -j 1", a, "ms")
	r.slot("mode_b_ms", "study_jn: JSON pass at -j nproc", b, "ms")
	r.slot("mode_c_ms", "study_text: text report at -j nproc", c, "ms")
	r.slot("alloc_mb", "study_alloc: heap MB per -j 1 pass", alloc, "MB")
	return r
}
