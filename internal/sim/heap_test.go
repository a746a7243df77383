package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// evKey orders events the way the heap must: by (at, seq).
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// zeroed reports whether a vacated heap slot was fully cleared — the
// closure-leak guard: pop must not leave fn (or the process pointer)
// pinned in the backing array. event contains funcs, so compare
// field-wise.
func zeroed(ev event) bool {
	return ev.at == 0 && ev.seq == 0 && ev.p == nil && ev.fn == nil
}

// TestEventHeapProperty drives randomized push/pop interleavings against a
// reference model and asserts three invariants: every pop returns the
// (at, seq) minimum of the live contents, the fully drained sequence is
// the reference sort, and every pop zeroes the slot it vacates.
func TestEventHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	woken := &Proc{name: "woken"}
	for iter := 0; iter < 300; iter++ {
		var h eventHeap
		var ref []event // live multiset, unordered
		var drained, refDrained []event
		seq := uint64(0)
		steps := 1 + rng.Intn(300)
		for op := 0; op < steps; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				seq++
				// Callbacks and wakeups alike, each with a non-nil
				// pointer so a leaked slot is detectable.
				ev := event{at: Time(rng.Intn(40)), seq: seq, fn: func() {}}
				if rng.Intn(2) == 0 {
					ev.p, ev.fn = woken, nil
				}
				h.push(ev)
				ref = append(ref, ev)
				continue
			}
			// Reference min by (at, seq).
			min := 0
			for i := 1; i < len(ref); i++ {
				if evLess(ref[i], ref[min]) {
					min = i
				}
			}
			want := ref[min]
			ref = append(ref[:min], ref[min+1:]...)
			got := h.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("iter %d: pop = (at=%d seq=%d), reference min = (at=%d seq=%d)",
					iter, got.at, got.seq, want.at, want.seq)
			}
			// The vacated slot sits just past the new length in the
			// backing array and must be fully zeroed.
			if vac := h[:len(h)+1][len(h)]; !zeroed(vac) {
				t.Fatalf("iter %d: vacated slot not cleared: %+v", iter, vac)
			}
			drained = append(drained, got)
			refDrained = append(refDrained, want)
		}
		// Drain the remainder and check the total (at, seq) order.
		for len(h) > 0 {
			prevLen := len(h)
			got := h.pop()
			if vac := h[:prevLen][prevLen-1]; !zeroed(vac) {
				t.Fatalf("iter %d: drain left slot uncleared: %+v", iter, vac)
			}
			drained = append(drained, got)
		}
		refDrained = append(refDrained, ref...)
		sortEvents(refDrained[len(refDrained)-len(ref):])
		// Interleaved pops need not be globally sorted, but the events
		// popped between two pushes are; validate the drain tail, which is
		// a pure pop run, is totally ordered.
		tail := drained[len(drained)-len(ref):]
		for i := 1; i < len(tail); i++ {
			if evLess(tail[i], tail[i-1]) {
				t.Fatalf("iter %d: drain out of order at %d: (%d,%d) after (%d,%d)",
					iter, i, tail[i].at, tail[i].seq, tail[i-1].at, tail[i-1].seq)
			}
		}
		// And the drained tail must be exactly the reference sort of the
		// live remainder.
		for i, got := range tail {
			want := refDrained[len(refDrained)-len(ref)+i]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("iter %d: drain[%d] = (%d,%d), want (%d,%d)",
					iter, i, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

func sortEvents(evs []event) {
	sort.Slice(evs, func(i, j int) bool { return evLess(evs[i], evs[j]) })
}

// TestEventHeapPopClearsBackingArray pushes N closures, drains the heap,
// and asserts every slot of the backing array is zeroed — no closure can
// outlive its event.
func TestEventHeapPopClearsBackingArray(t *testing.T) {
	var h eventHeap
	for i := 0; i < 64; i++ {
		h.push(event{at: Time(i % 7), seq: uint64(i + 1), fn: func() {}})
	}
	backing := h[:cap(h)]
	for len(h) > 0 {
		h.pop()
	}
	for i, ev := range backing {
		if !zeroed(ev) {
			t.Fatalf("backing slot %d still populated after drain: %+v", i, ev)
		}
	}
}
