package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"armvirt/internal/sim"
	"armvirt/internal/stats"
)

// Column is one merged series: the key fields plus per-bucket values,
// padded to the snapshot's common bucket count.
type Column struct {
	Series string  `json:"series"`
	Name   string  `json:"name,omitempty"`
	CPU    int     `json:"cpu"`
	VM     string  `json:"vm,omitempty"`
	Max    bool    `json:"max,omitempty"`
	Vals   []int64 `json:"vals"`
}

// LatencyHist is one CPU's merged IRQ-delivery latency distribution.
type LatencyHist struct {
	// CPU is the physical CPU (-1 = machine level).
	CPU int `json:"cpu"`
	// N and Sum aggregate the observations (cycles).
	N   int64 `json:"n"`
	Sum int64 `json:"sum"`
	// P50 and P99 are bucket-bounded quantile estimates in cycles.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// Buckets holds the non-empty log2 buckets as (lo, hi, count) rows.
	Buckets [][3]int64 `json:"buckets"`
}

// Series is a merged, deterministic snapshot of a sampler: partition
// buffers folded in canonical key order, every column padded to the
// common bucket count.
type Series struct {
	NCPU       int           `json:"ncpu"`
	FreqMHz    int           `json:"freq_mhz"`
	Interval   int64         `json:"interval_cycles"`
	Buckets    int           `json:"buckets"`
	Samples    int64         `json:"samples"`
	Cols       []Column      `json:"cols"`
	IRQLatency []LatencyHist `json:"irq_latency,omitempty"`
}

// Series merges the sampler's partition buffers into one canonical
// snapshot: columns are summed (or elementwise maximized for gauges)
// across partitions and emitted in sorted key order, histograms merged per
// CPU. The result is a pure function of the recorded samples — identical
// at every engine worker count and -j level. Returns an empty snapshot on a nil sampler.
func (s *Sampler) Series() Series {
	if s == nil {
		return Series{}
	}
	out := Series{NCPU: s.ncpu, FreqMHz: s.freqMHz, Interval: int64(s.interval), Samples: s.Samples()}

	merged := make(map[Key]*column)
	hists := make([]*stats.Histogram, s.ncpu+1)
	for _, ps := range s.parts {
		for k, c := range ps.cols {
			m := merged[k]
			if m == nil {
				m = &column{max: c.max}
				merged[k] = m
			}
			for b, v := range c.vals {
				m.add(b, v)
			}
		}
		for i, h := range ps.hist {
			if h == nil {
				continue
			}
			if hists[i] == nil {
				hists[i] = stats.NewHistogram()
			}
			hists[i].Merge(h)
		}
	}

	keys := make([]Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		if n := len(merged[k].vals); n > out.Buckets {
			out.Buckets = n
		}
	}
	for _, k := range keys {
		c := merged[k]
		vals := make([]int64, out.Buckets)
		copy(vals, c.vals)
		out.Cols = append(out.Cols, Column{
			Series: k.Series, Name: k.Name, CPU: k.CPU, VM: k.VM,
			Max: c.max, Vals: vals,
		})
	}
	for i, h := range hists {
		if h == nil {
			continue
		}
		cpu := i
		if i == s.ncpu {
			cpu = -1
		}
		out.IRQLatency = append(out.IRQLatency, LatencyHist{
			CPU: cpu, N: h.N(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
			Buckets: h.Buckets(),
		})
	}
	return out
}

// BucketUs converts a bucket index to its start time in microseconds on
// the sampled machine's clock.
func (ts Series) BucketUs(b int) float64 {
	if ts.FreqMHz <= 0 {
		return 0
	}
	return float64(int64(b)*ts.Interval) / float64(ts.FreqMHz)
}

// BucketOf returns the bucket index containing simulated time t (clamped
// to the snapshot's range; -1 if the snapshot is empty).
func (ts Series) BucketOf(t sim.Time) int {
	if ts.Buckets == 0 || ts.Interval <= 0 {
		return -1
	}
	b := int(t / sim.Time(ts.Interval))
	if b < 0 {
		b = 0
	}
	if b >= ts.Buckets {
		b = ts.Buckets - 1
	}
	return b
}

// Value returns the bucket value of the identified column (0 when the
// column or bucket does not exist).
func (ts Series) Value(series, name string, cpu int, vm string, b int) int64 {
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series == series && c.Name == name && c.CPU == cpu && c.VM == vm {
			if b >= 0 && b < len(c.Vals) {
				return c.Vals[b]
			}
			return 0
		}
	}
	return 0
}

// Total sums a column across all buckets.
func (ts Series) Total(series, name string, cpu int, vm string) int64 {
	var t int64
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series == series && c.Name == name && c.CPU == cpu && c.VM == vm {
			for _, v := range c.Vals {
				t += v
			}
		}
	}
	return t
}

// CPUTotal sums a series kind for one CPU across every sub-name and VM.
func (ts Series) CPUTotal(series string, cpu int) int64 {
	var t int64
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series == series && c.CPU == cpu {
			for _, v := range c.Vals {
				t += v
			}
		}
	}
	return t
}

// CPUBucket sums a series kind for one CPU in one bucket across sub-names
// and VMs.
func (ts Series) CPUBucket(series string, cpu, b int) int64 {
	var t int64
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series == series && c.CPU == cpu && b >= 0 && b < len(c.Vals) {
			t += c.Vals[b]
		}
	}
	return t
}

// Table renders the per-PCPU state at the bucket containing simulated time
// t: guest/hyp/idle utilization percentages, steal cycles, peak run-queue
// depth, and exits in that interval.
func (ts Series) Table(t sim.Time) string {
	var b strings.Builder
	bi := ts.BucketOf(t)
	if bi < 0 {
		return "telemetry: no samples\n"
	}
	fmt.Fprintf(&b, "t = %.1f us (bucket %d, interval %.1f us)\n",
		float64(int64(t))/float64(ts.FreqMHz), bi, float64(ts.Interval)/float64(ts.FreqMHz))
	fmt.Fprintf(&b, "%-5s %8s %8s %8s %10s %6s %7s\n", "pcpu", "guest%", "hyp%", "idle%", "steal(cy)", "runq", "exits")
	for cpu := 0; cpu < ts.NCPU; cpu++ {
		guest := ts.CPUBucket(SeriesUtilGuest, cpu, bi)
		hyp := ts.CPUBucket(SeriesUtilHyp, cpu, bi)
		steal := ts.CPUBucket(SeriesSteal, cpu, bi)
		runq := ts.CPUBucket(SeriesRunq, cpu, bi)
		exits := ts.CPUBucket(SeriesExit, cpu, bi)
		idle := ts.Interval - guest - hyp
		if idle < 0 {
			idle = 0
		}
		pct := func(v int64) float64 { return 100 * float64(v) / float64(ts.Interval) }
		fmt.Fprintf(&b, "%-5d %8.1f %8.1f %8.1f %10d %6d %7d\n",
			cpu, pct(guest), pct(hyp), pct(idle), steal, runq, exits)
	}
	return b.String()
}

// Summary renders whole-run per-PCPU totals, exit counts by reason, and
// IRQ-latency quantiles.
func (ts Series) Summary() string {
	var b strings.Builder
	span := int64(ts.Buckets) * ts.Interval
	fmt.Fprintf(&b, "run: %d buckets x %d cycles (%.1f us), %d samples\n",
		ts.Buckets, ts.Interval, float64(span)/float64(ts.FreqMHz), ts.Samples)
	fmt.Fprintf(&b, "%-5s %10s %10s %10s %6s %7s\n", "pcpu", "guest(cy)", "hyp(cy)", "steal(cy)", "runq", "exits")
	for cpu := 0; cpu < ts.NCPU; cpu++ {
		var runqPeak int64
		for i := range ts.Cols {
			c := &ts.Cols[i]
			if c.Series == SeriesRunq && c.CPU == cpu {
				for _, v := range c.Vals {
					if v > runqPeak {
						runqPeak = v
					}
				}
			}
		}
		fmt.Fprintf(&b, "%-5d %10d %10d %10d %6d %7d\n", cpu,
			ts.CPUTotal(SeriesUtilGuest, cpu), ts.CPUTotal(SeriesUtilHyp, cpu),
			ts.CPUTotal(SeriesSteal, cpu), runqPeak, ts.CPUTotal(SeriesExit, cpu))
	}
	first := true
	for i := range ts.Cols {
		c := &ts.Cols[i]
		if c.Series != SeriesExit && c.Series != SeriesCount {
			continue
		}
		if first {
			b.WriteString("\nevents:\n")
			first = false
		}
		var t int64
		for _, v := range c.Vals {
			t += v
		}
		loc := "machine"
		if c.CPU >= 0 {
			loc = fmt.Sprintf("pcpu%d", c.CPU)
		}
		if c.VM != "" {
			loc += "/" + c.VM
		}
		fmt.Fprintf(&b, "  %-12s %-14s %-16s %d\n", c.Series, c.Name, loc, t)
	}
	for _, h := range ts.IRQLatency {
		loc := "machine"
		if h.CPU >= 0 {
			loc = fmt.Sprintf("pcpu%d", h.CPU)
		}
		fmt.Fprintf(&b, "irq-latency %-8s n=%d p50=%.0fcy p99=%.0fcy\n", loc, h.N, h.P50, h.P99)
	}
	return b.String()
}

// WriteCSV renders the snapshots in long CSV form, one row per (machine,
// column, bucket): machine,series,name,cpu,vm,bucket,t_us,value. Machines
// are indexed in the order given, so the byte stream is deterministic.
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := io.WriteString(w, "machine,series,name,cpu,vm,bucket,t_us,value\n"); err != nil {
		return err
	}
	for mi, ts := range series {
		for i := range ts.Cols {
			c := &ts.Cols[i]
			for b, v := range c.Vals {
				if v == 0 {
					continue
				}
				if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%s,%d,%.3f,%d\n",
					mi, c.Series, c.Name, c.CPU, c.VM, b, ts.BucketUs(b), v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshots as an indented JSON document
// {"machines": [...]}, the /v1/experiments/{id}/timeseries shape.
func WriteJSON(w io.Writer, series []Series) error {
	doc := struct {
		Machines []Series `json:"machines"`
	}{Machines: series}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
