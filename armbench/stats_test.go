package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 7, 7, 7}, 7},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 1, 1, 100}, 1, 75.25},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 ((4.5-1.5)/3)", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1, 0, false},
		{39, 0, false},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v, want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			v := percentile(xs, p)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d p=%v: %d samples beyond %v, want >= 10", c.n, p, beyond, v)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {80, 4}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "mode_a_ms", "sim.ns_per_event.fleet_par1", "exp.PD1_ms", "0x", "a-b.c_d"}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "per/sec", "µs", "a\n", string(make([]byte, 65))}
	long := "a"
	for len(long) < 64 {
		long += "b"
	}
	good = append(good, long)
	bad = append(bad, long+"c")
	for _, n := range good {
		if err := checkName(n); err != nil {
			t.Errorf("checkName(%q) = %v, want ok", n, err)
		}
	}
	for _, n := range bad {
		if err := checkName(n); err == nil {
			t.Errorf("checkName(%q) accepted", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "MB"} {
		if err := checkUnit(u); err != nil {
			t.Errorf("checkUnit(%q) = %v", u, err)
		}
	}
	for _, u := range []string{"", "µs", "req per s", "abcdefghijklmnopq"} {
		if err := checkUnit(u); err == nil {
			t.Errorf("checkUnit(%q) accepted", u)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the program prints, each
// with a name and unit inside the charset.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.what, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program prints %v", c.what, i, c.got[i], c.want[i])
			}
			if err := checkName(c.got[i].name); err != nil {
				t.Error(err)
			}
			if err := checkUnit(c.got[i].unit); err != nil {
				t.Error(err)
			}
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
