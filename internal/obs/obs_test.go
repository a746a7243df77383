package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"armvirt/internal/sim"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(10, GuestExit, 0, "vm", 0, "hypercall", 0)
	if r.Total() != 0 || r.Count(GuestExit) != 0 || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil recorder reported activity: total=%d", r.Total())
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events: %v", evs)
	}
	if r.NCPU() != 0 {
		t.Fatalf("nil recorder NCPU = %d", r.NCPU())
	}
	s := Summarize(r)
	if s.Exits() != 0 || s.Hypercalls() != 0 || len(s.Reasons) != 0 {
		t.Fatalf("summary of nil recorder not empty: %+v", s)
	}
	if s.Headline() == "" || s.Render() == "" {
		t.Fatal("empty summary must still render")
	}
}

func TestEmitRouting(t *testing.T) {
	r := NewRecorder(2, 8)
	r.Emit(1, GuestEnter, 0, "vm", 0, "", 0)    // cpu0 ring
	r.Emit(2, GuestEnter, 1, "vm", 1, "", 0)    // cpu1 ring
	r.Emit(3, ProcEvent, -1, "", -1, "tick", 0) // machine ring
	r.Emit(4, PhysIRQ, 99, "", -1, "SPI", 7)    // out of range -> machine ring

	if r.Total() != 4 || r.Len() != 4 {
		t.Fatalf("total=%d len=%d, want 4/4", r.Total(), r.Len())
	}
	if len(r.rings[0].buf) != 1 || len(r.rings[1].buf) != 1 || len(r.rings[2].buf) != 2 {
		t.Fatalf("ring occupancy = %d/%d/%d, want 1/1/2",
			len(r.rings[0].buf), len(r.rings[1].buf), len(r.rings[2].buf))
	}

	evs := r.Events()
	for i, e := range evs {
		if int(e.Seq) != i+1 {
			t.Fatalf("events not in Seq order: %v", evs)
		}
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 10; i++ {
		r.Emit(sim.Time(i), VirqInject, 0, "vm", 0, "", int64(i))
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10 (counters survive drops)", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Arg != int64(6+i) {
			t.Fatalf("retained wrong window: %v", evs)
		}
	}
}

// fixedRing is the preallocated ring the on-demand ring replaced, kept as
// the reference TestRingGrowsLikeFixedRing compares against.
type fixedRing struct {
	buf      []Event
	start, n int
	dropped  int64
}

func (f *fixedRing) push(ev Event) {
	if f.n == len(f.buf) {
		f.buf[f.start] = ev
		f.start = (f.start + 1) % len(f.buf)
		f.dropped++
		return
	}
	f.buf[(f.start+f.n)%len(f.buf)] = ev
	f.n++
}

func (f *fixedRing) events() []Event {
	out := make([]Event, 0, f.n)
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(f.start+i)%len(f.buf)])
	}
	return out
}

// TestRingGrowsLikeFixedRing: a ring that allocates on demand retains,
// wraps and drops exactly as a preallocated ring of the same capacity,
// after every push, and never grows past its capacity, also behind a
// recorder.
func TestRingGrowsLikeFixedRing(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 9, 100} {
		r, ref := newRing(capacity), &fixedRing{buf: make([]Event, capacity)}
		for i := 0; i < 3*capacity+5; i++ {
			ev := Event{Seq: uint64(i + 1), Arg: int64(i)}
			r.push(ev)
			ref.push(ev)
			if !reflect.DeepEqual(r.events(), ref.events()) || r.dropped != ref.dropped {
				t.Fatalf("cap %d after %d pushes: events %v dropped %d, want %v dropped %d",
					capacity, i+1, r.events(), r.dropped, ref.events(), ref.dropped)
			}
			if cap(r.buf) > capacity {
				t.Fatalf("cap %d: buffer grew to %d", capacity, cap(r.buf))
			}
		}
	}

	rec := NewRecorder(2, 4)
	for i := 0; i < 10; i++ {
		rec.Emit(sim.Time(i), VirqInject, 1, "vm", 0, "", int64(i))
	}
	if rec.Len() != 4 || rec.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", rec.Len(), rec.Dropped())
	}
}

// recorderSink keeps the recorders TestRecorderAllocatesOnFirstUse builds
// on the heap.
var recorderSink *Recorder

// TestRecorderAllocatesOnFirstUse: building a recorder of 10 rings of
// 1<<12 events allocates no event storage until events arrive;
// preallocated rings would cost about 3 MB here.
func TestRecorderAllocatesOnFirstUse(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recorderSink = NewRecorder(9, 1<<12)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("NewRecorder allocated %d bytes, want < 64 KB", per)
	}
}

// emitPair records one full exit→re-enter round trip for vm/vcpu0.
func emitPair(r *Recorder, exitT, enterT sim.Time, reason string) {
	r.Emit(exitT, GuestExit, 0, "vm", 0, reason, 0)
	r.Emit(enterT, GuestEnter, 0, "vm", 0, "", 0)
}

func TestSummarizeAttribution(t *testing.T) {
	r := NewRecorder(1, 0)
	r.Emit(0, GuestEnter, 0, "vm", 0, "", 0)
	emitPair(r, 100, 150, "hypercall") // 50 cycles out of guest
	emitPair(r, 300, 500, "wfi")       // 200 cycles
	emitPair(r, 600, 640, "hypercall") // 40 cycles
	r.Emit(700, VirqInject, 0, "vm", 0, "", 27)
	r.Emit(700, VMSwitch, 0, "vm", 0, "sched", 1)

	s := Summarize(r)
	if s.Exits() != 3 {
		t.Fatalf("Exits = %d, want 3", s.Exits())
	}
	if s.Hypercalls() != 2 {
		t.Fatalf("Hypercalls = %d, want 2", s.Hypercalls())
	}
	if s.VirqInjections() != 1 || s.VMSwitches() != 1 {
		t.Fatalf("virq=%d switches=%d, want 1/1", s.VirqInjections(), s.VMSwitches())
	}
	if s.HypCycles != 290 {
		t.Fatalf("HypCycles = %d, want 290", s.HypCycles)
	}
	// Guest time: 0→100, 150→300, 500→600 = 100+150+100.
	if s.GuestCycles != 350 {
		t.Fatalf("GuestCycles = %d, want 350", s.GuestCycles)
	}
	if s.Span != 700 {
		t.Fatalf("Span = %d, want 700", s.Span)
	}

	// Reasons sorted by attributed cycles descending: wfi (200) first.
	if len(s.Reasons) != 2 || s.Reasons[0].Reason != "wfi" || s.Reasons[1].Reason != "hypercall" {
		t.Fatalf("reason order wrong: %+v", s.Reasons)
	}
	hc := s.Reasons[1]
	if hc.Count != 2 || hc.Cycles != 90 {
		t.Fatalf("hypercall stat = %+v, want count 2 cycles 90", hc)
	}
	if hc.Hist.N() != 2 || hc.Hist.HMin() != 40 || hc.Hist.HMax() != 50 {
		t.Fatalf("hypercall hist wrong: n=%d min=%d max=%d",
			hc.Hist.N(), hc.Hist.HMin(), hc.Hist.HMax())
	}

	render := s.Render()
	for _, want := range []string{"exit reason", "wfi", "hypercall", "TOTAL"} {
		if !strings.Contains(render, want) {
			t.Fatalf("Render missing %q:\n%s", want, render)
		}
	}
}

func TestSummarizeTrailingExit(t *testing.T) {
	// An exit with no subsequent enter must count the exit but attribute
	// no cycles (the gap is open-ended).
	r := NewRecorder(1, 0)
	r.Emit(0, GuestEnter, 0, "vm", 0, "", 0)
	r.Emit(100, GuestExit, 0, "vm", 0, "shutdown", 0)
	s := Summarize(r)
	if s.Exits() != 1 || s.HypCycles != 0 || s.GuestCycles != 100 {
		t.Fatalf("trailing exit: exits=%d hyp=%d guest=%d, want 1/0/100",
			s.Exits(), s.HypCycles, s.GuestCycles)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds {
		lbl := k.String()
		if strings.HasPrefix(lbl, "Kind(") {
			t.Fatalf("kind %d has no label", k)
		}
		if seen[lbl] {
			t.Fatalf("duplicate kind label %q", lbl)
		}
		seen[lbl] = true
	}
	if len(Kinds) != int(numKinds) {
		t.Fatalf("Kinds lists %d kinds, const block declares %d", len(Kinds), numKinds)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	r := NewRecorder(2, 0)
	r.Emit(0, GuestEnter, 0, "vm", 0, "", 0)
	emitPair(r, 1000, 1400, "hypercall")
	r.Emit(1500, VirqInject, 1, "vm", 0, "", 27)
	r.Emit(1600, PhysIRQ, -1, "", -1, "SPI", 40)
	r.Emit(1700, GuestExit, 0, "vm", 0, "wfi", 0) // dangling span

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, 2400); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	phases := map[string]int{}
	for _, e := range events {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event missing %q: %v", key, e)
			}
		}
		ph := e["ph"].(string)
		phases[ph]++
		if ph != "M" {
			if _, ok := e["ts"]; !ok {
				t.Fatalf("non-metadata event missing ts: %v", e)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("expected M, X and i phases, got %v", phases)
	}

	// The guest span between enter(0) and exit(1000) is 1000 cycles at
	// 2400 MHz; check a complete "guest" span carries that duration.
	found := false
	for _, e := range events {
		if e["ph"] == "X" && e["name"] == "guest" {
			if dur, ok := e["dur"].(float64); ok && dur > 0.416 && dur < 0.417 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no guest span with the expected duration")
	}
}

func TestWriteChromeTraceBadFreq(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, NewRecorder(1, 0), 0); err == nil {
		t.Fatal("expected error for freqMHz <= 0")
	}
}

func TestWriteChromeTraceNilRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, 2400); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil-recorder output invalid: %v", err)
	}
}
