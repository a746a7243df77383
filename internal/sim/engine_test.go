package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	e.Run()
	if woke != 100 {
		t.Fatalf("woke at %d, want 100", woke)
	}
	if e.Now() != 100 {
		t.Fatalf("engine at %d, want 100", e.Now())
	}
}

func TestSleepZeroOrNegativeIsNoop(t *testing.T) {
	e := NewEngine()
	var woke Time = -1
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		woke = p.Now()
	})
	e.Run()
	if woke != 0 {
		t.Fatalf("woke at %d, want 0", woke)
	}
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: later seq runs later
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "a")
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(15)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// a@10, b@15, a@20, then both at t=30: b's wakeup was scheduled at
	// t=15 (earlier seq) so b runs first, then a; finally b@45.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for j := range want {
		if first[j] != want[j] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
}

func TestQueueDeliversInOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []int
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(5)
			q.Send(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want [0 1 2]", got)
		}
	}
}

func TestQueueRecvBlocksUntilSend(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "q")
	var at Time
	e.Go("recv", func(p *Proc) {
		q.Recv(p)
		at = p.Now()
	})
	e.After(250, func() { q.Send("hi") })
	e.Run()
	if at != 250 {
		t.Fatalf("received at %d, want 250", at)
	}
}

func TestQueueSendAfterModelsPropagation(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "wire")
	var at Time
	e.Go("recv", func(p *Proc) {
		q.Recv(p)
		at = p.Now()
	})
	e.Go("send", func(p *Proc) {
		p.Sleep(100)
		q.SendAfter(40, 1)
	})
	e.Run()
	if at != 140 {
		t.Fatalf("received at %d, want 140", at)
	}
}

func TestResourceSerializesExec(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pcpu")
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(100)
			r.Release(p)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	var recovered bool
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		r.Release(p)
	})
	e.Run()
	if !recovered {
		t.Fatal("expected panic on Release by non-holder")
	}
}

// Property: for any schedule of sends and receiver counts, every sent item is
// received exactly once and in FIFO order per receive sequence.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		e := NewEngine()
		q := NewQueue[int](e, "q")
		var got []int
		e.Go("recv", func(p *Proc) {
			for i := 0; i < count; i++ {
				got = append(got, q.Recv(p))
			}
		})
		t0 := Time(0)
		for i := 0; i < count; i++ {
			t0 += Time(rng.Intn(20))
			v := i
			e.At(t0, func() { q.Send(v) })
		}
		e.Run()
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the event queue dispatches in nondecreasing time order for any
// random batch of scheduled times.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, ti := range times {
			at := Time(ti)
			e.At(at, func() { seen = append(seen, at) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never has two simultaneous holders and total
// exclusive occupancy equals the sum of the hold durations.
func TestResourceExclusionProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		users := int(n%8) + 2
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "r")
		var total Time
		var maxEnd Time
		held := 0
		violation := false
		for i := 0; i < users; i++ {
			d := Time(rng.Intn(100) + 1)
			start := Time(rng.Intn(50))
			total += d
			e.Go("u", func(p *Proc) {
				p.Sleep(start)
				r.Acquire(p)
				if held++; held != 1 {
					violation = true
				}
				p.Sleep(d)
				held--
				r.Release(p)
				if p.Now() > maxEnd {
					maxEnd = p.Now()
				}
			})
		}
		e.Run()
		// All work must fit serially: the last completion is at least the
		// total service demand and at most demand plus the latest start.
		return !violation && maxEnd >= total && maxEnd <= total+50
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.root.now = 100
	e.root.queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	e.Run()
}

func TestTracerSeesStartAndExit(t *testing.T) {
	e := NewEngine()
	var events []string
	e.SetProcTap(func(_ Time, what, name string) {
		events = append(events, what+" "+name)
	})
	e.Go("x", func(p *Proc) { p.Sleep(1) })
	e.Run()
	if len(events) != 2 || events[0] != "start x" || events[1] != "exit x" {
		t.Fatalf("trace = %v", events)
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "a-after-yield")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "a-after-yield" {
		t.Fatalf("order = %v", order)
	}
}

// TestFinishedProcsLeaveNoGoroutines: a process that runs to completion
// leaves no goroutine behind once Run returns, so a coroutine that is never
// driven to its end shows up here as a leak.
func TestFinishedProcsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	const n = 50
	finished := 0
	for i := 0; i < n; i++ {
		e.Go("worker", func(p *Proc) {
			for k := 0; k < 3; k++ {
				p.Sleep(Time(k + 1))
			}
			finished++
		})
	}
	e.Run()
	if finished != n {
		t.Fatalf("%d of %d procs finished", finished, n)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("NumGoroutine = %d after Run, want at most the baseline %d", got, base)
	}
}

// TestRunEndsParkedProcs: procs left parked on a queue when Run drains
// are ended, so their coroutines leave runtime.NumGoroutine at its
// baseline. Each unwinds from its park through its deferred calls and
// reports no "exit" to the process tap.
func TestRunEndsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var exits int
	e.SetProcTap(func(_ Time, what, _ string) {
		if what == "exit" {
			exits++
		}
	})
	q := NewQueue[int](e, "never")
	const n = 20
	unwound := 0
	for i := 0; i < n; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Time(i))
			q.Recv(p)
			t.Error("a proc parked on a queue nothing sends to resumed")
		})
	}
	e.Run()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("NumGoroutine = %d after Run, want at most the baseline %d", got, base)
	}
	if unwound != n || exits != 0 {
		t.Fatalf("%d of %d procs ran their deferred calls and %d reported exit, want %d and 0", unwound, n, exits, n)
	}
}

// TestEndedProcWakePanics: a proc Run ended is not parked, so a later
// wakeup of it panics instead of silently resuming nothing.
func TestEndedProcWakePanics(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "late")
	e.Go("stuck", func(p *Proc) { q.Recv(p) })
	e.Run()
	e.At(10, func() { q.Send(1) })
	if r := runPanic(e); !strings.Contains(fmt.Sprint(r), "stuck, which is not parked") {
		t.Fatalf("Run panicked with %v, want the not-parked wakeup panic", r)
	}
}

// TestSecondWakePanics: a park has exactly one pending wakeup. A second
// wake of the same park reaches a proc that is no longer parked, and the
// engine panics rather than resume it out of turn.
func TestSecondWakePanics(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	p := e.Go("recv", func(p *Proc) { q.Recv(p) })
	e.At(5, func() {
		q.Send(1) // the one wakeup: the queue pops p off its wait list
		e.wake(p) // a second wake of the same park
	})
	if r := runPanic(e); !strings.Contains(fmt.Sprint(r), "recv, which is not parked") {
		t.Fatalf("Run panicked with %v, want the not-parked wakeup panic", r)
	}
}
