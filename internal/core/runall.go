package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"armvirt/internal/bench"
	"armvirt/internal/sim"
)

// Report pairs an experiment with its outcome: the structured result, or
// the error if Run panicked (or the run was cancelled before it started).
type Report struct {
	Experiment
	Result Result
	Err    error
}

// MarshalJSON emits the machine-readable form of a completed experiment:
// identity, the result's data rows, and the rendered text.
func (r Report) MarshalJSON() ([]byte, error) {
	out := struct {
		ID    string      `json:"id"`
		Title string      `json:"title"`
		Kind  string      `json:"kind"`
		Error string      `json:"error,omitempty"`
		Rows  []bench.Row `json:"rows,omitempty"`
		Text  string      `json:"text,omitempty"`
	}{ID: r.ID, Title: r.Title, Kind: r.Kind.String()}
	if r.Err != nil {
		out.Error = r.Err.Error()
	} else if r.Result != nil {
		out.Rows = r.Result.Rows()
		out.Text = r.Result.Render()
	}
	return json.Marshal(out)
}

// RunOne executes a single experiment, converting a panic in Run into a
// Report error so one broken experiment cannot take down a whole report.
func RunOne(e Experiment) (rep Report) {
	rep.Experiment = e
	defer func() {
		if r := recover(); r != nil {
			rep.Err = fmt.Errorf("experiment %s (%s) panicked: %v", e.ID, e.Title, r)
		}
	}()
	rep.Result = e.Run()
	return rep
}

// RunAll executes every registered experiment and returns the reports in
// registry order. parallelism bounds the number of experiments in flight
// (values < 1 mean serial). Each experiment builds its own platforms and
// simulation engines, so concurrent runs share no mutable state and the
// returned reports — and anything rendered from them in order — are
// byte-identical to a serial run. A cancelled context stops dispatching
// new experiments; their reports carry the context error.
func RunAll(ctx context.Context, parallelism int) []Report {
	exps := Experiments()
	reports := make([]Report, len(exps))
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	// Workers inherit the caller's run scope, so engines built inside
	// experiments register with the caller's sim.StatsCollector and
	// machines sample into its telemetry.Collector.
	bind := sim.Inherit()
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			detach := bind()
			defer detach()
			for i := range jobs {
				reports[i] = RunOne(exps[i])
			}
		}()
	}
	for i := range exps {
		if err := ctx.Err(); err != nil {
			reports[i] = Report{Experiment: exps[i], Err: err}
			continue
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports
}
