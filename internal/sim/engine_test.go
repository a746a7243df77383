package sim

import (
	"math/rand"
	"runtime"
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

func TestQueueRecvTimeoutExpires(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var ok bool
	var at Time
	e.Go("recv", func(p *Proc) {
		_, ok = q.RecvTimeout(p, 100)
		at = p.Now()
	})
	e.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 100 {
		t.Fatalf("timed out at %d, want 100", at)
	}
}

func TestQueueRecvTimeoutDeliversBeforeDeadline(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var ok bool
	var v int
	e.Go("recv", func(p *Proc) {
		v, ok = q.RecvTimeout(p, 100)
	})
	e.After(30, func() { q.Send(7) })
	e.Run()
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
}

func TestQueueStaleWaiterAfterTimeoutDoesNotLoseItems(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var timedOut bool
	var got int
	e.Go("r1", func(p *Proc) {
		_, ok := q.RecvTimeout(p, 10)
		timedOut = !ok
	})
	e.Go("r2", func(p *Proc) {
		p.Sleep(20)
		got = q.Recv(p)
	})
	e.After(30, func() { q.Send(42) })
	e.Run()
	if !timedOut {
		t.Fatal("r1 should have timed out")
	}
	if got != 42 {
		t.Fatalf("r2 got %d, want 42", got)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.After(50, c.Broadcast)
	e.Run()
	if woke != 5 {
		t.Fatalf("woke %d, want 5", woke)
	}
}

func TestResourceSerializesExec(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "pcpu")
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Exec(p, 100)
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

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(500, func() { fired = true })
	e.RunUntil(200)
	if fired {
		t.Fatal("event at 500 should not fire by 200")
	}
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
	e.RunUntil(600)
	if !fired {
		t.Fatal("event at 500 should fire by 600")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestGoAtDeferredStart(t *testing.T) {
	e := NewEngine()
	var started Time
	e.GoAt(777, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 777 {
		t.Fatalf("started at %d, want 777", started)
	}
}

func TestParkedProcsReported(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "never")
	e.Go("stuck", func(p *Proc) { q.Recv(p) })
	e.Run()
	parked := e.ParkedProcs()
	if len(parked) != 1 || parked[0] != "stuck" {
		t.Fatalf("parked = %v, want [stuck]", parked)
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

// Property: a resource never reports two simultaneous holders and total
// exclusive occupancy equals the sum of exec durations.
func TestResourceExclusionProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		users := int(n%8) + 2
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "r")
		var total Time
		var maxEnd Time
		violation := false
		for i := 0; i < users; i++ {
			d := Time(rng.Intn(100) + 1)
			start := Time(rng.Intn(50))
			total += d
			e.GoAt(start, "u", func(p *Proc) {
				r.Acquire(p)
				if r.Holder() != p {
					violation = true
				}
				p.Sleep(d)
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

func TestRunUntilPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.root.now = 100
	e.root.queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	e.RunUntil(200)
}

// The reusable per-Proc waiter must stay one-shot per generation: repeated
// timeouts leave stale wait-list registrations behind, and none of them may
// steal a later wakeup or lose an item.
func TestWaiterReuseAcrossRepeatedTimeouts(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	timeouts := 0
	var got []int
	e.Go("recv", func(p *Proc) {
		for len(got) < 2 {
			if v, ok := q.RecvTimeout(p, 10); ok {
				got = append(got, v)
			} else {
				timeouts++
			}
		}
	})
	e.After(35, func() { q.Send(1) })
	e.After(55, func() { q.Send(2) })
	e.Run()
	if timeouts < 3 {
		t.Fatalf("expected at least 3 timeouts, got %d", timeouts)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestTracerSeesStartAndExit(t *testing.T) {
	e := NewEngine()
	var events []string
	e.SetProcTap(func(_ Time, part PartID, what, name string) {
		if part != 0 {
			t.Errorf("%s %s on partition %d, want 0", what, name, part)
		}
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
