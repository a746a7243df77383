package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(b, &bf)
	return bf, err
}

// runResult is the last line of one untraced run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runOnce runs this binary on one workload and seed as a child process
// and parses its last output line.
func runOnce(self, workload string, seed, seconds int) (runResult, error) {
	var res runResult
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil && err == nil {
		err = fmt.Errorf("last line is not a result: %v", jerr)
	}
	if err == nil && !res.Correct {
		err = fmt.Errorf("run not correct")
	}
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %v\n%s", workload, seed, err, out.String())
	}
	return res, nil
}

// The steadiness command's design: two independent sets of ten runs per
// workload, each run with its own seed.
const (
	steadySets = 2
	steadyRuns = 10
)

// steady runs two independent sets of runs of the same build, with the
// definitions in BENCHMARK.json of the checkout it runs from, and reports,
// for each end-to-end metric and workload, both sets' medians and
// quartiles and whether they agree within the metric's bound in
// BENCHMARK.json: each set's interquartile spread within the bound, the
// second median within the bound of the first in either direction, and
// the same share of failed operations.
func steady(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: armbench steady")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "armbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "armbench steady:", err)
		return 1
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}

	// vals[set][workload][metric] holds one value per run.
	vals := make([]map[string]map[string][]float64, steadySets)
	failShare := make([]map[string][2]int, steadySets)
	for s := range vals {
		vals[s] = make(map[string]map[string][]float64)
		failShare[s] = make(map[string][2]int)
		for _, w := range names {
			vals[s][w] = make(map[string][]float64)
			for i := 0; i < steadyRuns; i++ {
				seed := 1000*(s+1) + i
				res, err := runOnce(self, w, seed, bf.RunSeconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "armbench steady:", err)
					return 1
				}
				for _, m := range bf.EndToEnd {
					vals[s][w][m.Name] = append(vals[s][w][m.Name], res.Metrics[m.Name].Value)
				}
				f := failShare[s][w]
				failShare[s][w] = [2]int{f[0] + res.Failed, f[1] + res.Attempted}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", s+1, w, seed)
			}
		}
	}

	ok := true
	fmt.Printf("%-8s %-10s %6s  %s\n", "workload", "metric", "bound", "per set: median [q1 q3] spread; verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			line := fmt.Sprintf("%-8s %-10s %6.3f ", w, m.Name, m.Bound)
			verdict := "ok"
			var med []float64
			for s := range vals {
				xs := vals[s][w][m.Name]
				q1, q3 := quartiles(xs)
				sp := spread(xs)
				med = append(med, median(xs))
				line += fmt.Sprintf(" | %.6g [%.6g %.6g] %.3f", median(xs), q1, q3, sp)
				if sp > m.Bound {
					verdict = "SPREAD"
				} else if sp > m.Bound/3 && verdict == "ok" {
					verdict = "ok (spread above a third of the bound)"
				}
			}
			shift := (med[1] - med[0]) / med[0]
			line += fmt.Sprintf(" | shift %+.3f", shift)
			if math.Abs(shift) > m.Bound {
				verdict = "SHIFT"
			}
			if verdict == "SPREAD" || verdict == "SHIFT" {
				ok = false
			}
			fmt.Println(line + " ; " + verdict)
			for s := range vals {
				fmt.Printf("%19s set %d runs: %.4g\n", "", s+1, vals[s][w][m.Name])
			}
		}
		a, b := failShare[0][w], failShare[1][w]
		if a[0]*b[1] != b[0]*a[1] {
			fmt.Printf("%-8s failed share differs: %d/%d vs %d/%d ; FAILED-SHARE\n", w, a[0], a[1], b[0], b[1])
			ok = false
		}
	}
	if !ok {
		fmt.Println("NOT STEADY")
		return 1
	}
	fmt.Println("steady")
	return 0
}
