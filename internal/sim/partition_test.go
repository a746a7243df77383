package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// partitionedRun builds a 4-partition engine running a seeded-random
// workload — partition-local fiber chatter through queues plus
// cross-partition SendTo messages at randomized legal delays — and returns
// its complete observable output: per-partition logs merged in partition
// order, the engine stats, and the parked-proc listing. The workload is a
// pure function of the seed, so two runs must return identical values.
func partitionedRun(t *testing.T, seed int64, deadline Time) ([]string, EngineStats, []string) {
	t.Helper()
	const lookahead = 100
	e := NewEngine()
	e.SetLookahead(lookahead)
	parts := []PartID{0, e.AddPartition("p1"), e.AddPartition("p2"), e.AddPartition("p3")}

	logs := make([][]string, len(parts))
	inboxes := make([]*Queue[int], len(parts))
	for i, id := range parts {
		inboxes[id] = NewQueue[int](e, fmt.Sprintf("inbox%d", i))
	}
	rng := rand.New(rand.NewSource(seed))
	for i, id := range parts {
		id := id
		li := i
		// One consumer per partition drains cross-partition messages until
		// they dry up; it logs every receipt with its local timestamp.
		e.GoOn(id, fmt.Sprintf("consumer%d", i), func(p *Proc) {
			for {
				v, ok := inboxes[id].RecvTimeout(p, 4*lookahead)
				if !ok {
					return
				}
				logs[li] = append(logs[li], fmt.Sprintf("p%d recv %d @%d", li, v, p.Now()))
			}
		})
		// Chatter fibers sleep pseudo-random local amounts and fire
		// cross-partition messages with delays >= lookahead. All rand
		// draws happen at setup so the schedule is fixed before Run.
		for f := 0; f < 3; f++ {
			f := f
			type step struct {
				sleep Time
				to    PartID
				delay Time
				val   int
			}
			steps := make([]step, 8)
			for s := range steps {
				steps[s] = step{
					sleep: Time(1 + rng.Intn(60)),
					to:    parts[rng.Intn(len(parts))],
					delay: lookahead + Time(rng.Intn(80)),
					val:   rng.Intn(1000),
				}
			}
			e.GoOn(id, fmt.Sprintf("chat%d.%d", i, f), func(p *Proc) {
				for s, st := range steps {
					p.Sleep(st.sleep)
					logs[li] = append(logs[li], fmt.Sprintf("p%d chat%d step%d @%d", li, f, s, p.Now()))
					to, val := st.to, st.val
					p.SendTo(to, st.delay, func() { inboxes[to].Send(val) })
				}
			})
		}
	}
	if deadline > 0 {
		e.RunUntil(deadline)
	} else {
		e.Run()
	}
	var merged []string
	for _, l := range logs {
		merged = append(merged, l...)
	}
	return merged, e.Stats(), e.ParkedProcs()
}

// TestPartitionedDeterministicAcrossWorkers is the core byte-identity
// property: two runs of one seeded workload produce the same logs, stats
// and parked procs.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		base, baseStats, baseParked := partitionedRun(t, seed, 0)
		if len(base) == 0 {
			t.Fatalf("seed %d produced no output", seed)
		}
		got, gotStats, gotParked := partitionedRun(t, seed, 0)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("seed %d: log diverged between two runs\nfirst: %v\nsecond: %v", seed, base, got)
		}
		if !reflect.DeepEqual(baseStats, gotStats) {
			t.Fatalf("seed %d: stats %+v != first run %+v", seed, gotStats, baseStats)
		}
		if !reflect.DeepEqual(baseParked, gotParked) {
			t.Fatalf("seed %d: parked %v != first run %v", seed, gotParked, baseParked)
		}
	}
}

// TestPartitionedRunUntilAcrossWorkers checks the deadline semantics under
// the quantum loop: identical truncated output across two runs, and all
// partition clocks advanced to the deadline.
func TestPartitionedRunUntilAcrossWorkers(t *testing.T) {
	const seed, deadline = 11, 250
	base, baseStats, baseParked := partitionedRun(t, seed, deadline)
	got, gotStats, gotParked := partitionedRun(t, seed, deadline)
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("RunUntil log diverged between two runs\nfirst: %v\nsecond: %v", base, got)
	}
	if !reflect.DeepEqual(baseStats, gotStats) {
		t.Fatalf("RunUntil stats %+v != first run %+v", gotStats, baseStats)
	}
	if !reflect.DeepEqual(baseParked, gotParked) {
		t.Fatalf("RunUntil parked %v != first run %v", gotParked, baseParked)
	}
	if baseStats.Cycles != deadline {
		t.Fatalf("RunUntil left clock at %d, want deadline %d", baseStats.Cycles, deadline)
	}
}

// TestPartitionedRunUntilThenRun resumes a deadline-bounded partitioned
// run: RunUntil stops the walk midway and a later Run finishes it.
func TestPartitionedRunUntilThenRun(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(50)
	p1 := e.AddPartition("p1")
	var log []string
	e.GoOn(p1, "walker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(30)
			log = append(log, fmt.Sprintf("step%d @%d", i, p.Now()))
		}
	})
	e.RunUntil(100)
	n := len(log)
	if n == 0 || n == 10 {
		t.Fatalf("deadline split ineffective: %d steps before deadline", n)
	}
	e.Run()
	if len(log) != 10 {
		t.Fatalf("resume incomplete: %d steps", len(log))
	}
}

// TestPartitionedRunUntilPanicsOnTimeRegression is the deadline-regression
// panic parity check: a multi-partition engine must fail exactly like the
// sequential one when an event is behind a partition clock.
func TestPartitionedRunUntilPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	e.AddPartition("p1")
	e.parts[1].now = 100
	e.parts[1].queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on time regression")
		}
		if !strings.Contains(fmt.Sprint(r), "time went backwards") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	e.RunUntil(200)
}

// TestPartitionedRunPanicsOnTimeRegression mirrors the Run variant.
func TestPartitionedRunPanicsOnTimeRegression(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	e.AddPartition("p1")
	e.parts[1].now = 100
	e.parts[1].queue.push(event{at: 50, seq: 1, fn: func() {}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	e.Run()
}

// TestSendToBelowLookaheadPanics: a cross-partition delay below the
// lookahead would let a message land inside a window another partition
// has already executed — the engine must refuse it loudly.
func TestSendToBelowLookaheadPanics(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	p2 := e.AddPartition("p2")
	var got any
	e.GoOn(p1, "bad", func(p *Proc) {
		defer func() { got = recover() }()
		p.Sleep(1)
		e.SendTo(p2, 50, func() {})
	})
	e.Run()
	if got == nil {
		t.Fatal("expected SendTo below lookahead to panic")
	}
	if !strings.Contains(fmt.Sprint(got), "lookahead") {
		t.Fatalf("wrong panic: %v", got)
	}
}

// TestSendToOwnPartitionIsAfter: local sends have no lookahead floor.
func TestSendToOwnPartitionIsAfter(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	var at Time
	e.GoOn(p1, "self", func(p *Proc) {
		p.Sleep(5)
		e.SendTo(p1, 3, func() { at = e.Now() })
		p.Sleep(50)
	})
	e.Run()
	if at != 8 {
		t.Fatalf("local SendTo fired at %d, want 8", at)
	}
}

// TestSendToAtSetupSeedsRemotePartition: before Run, SendTo lands directly
// on the target partition with no lookahead requirement (initial topology
// wiring).
func TestSendToAtSetupSeedsRemotePartition(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(100)
	p1 := e.AddPartition("p1")
	fired := false
	e.SendTo(p1, 5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("setup-time SendTo never fired")
	}
}

// TestPartitionedStop: Stop from inside a fiber halts the whole engine at
// a deterministic point (the quantum barrier) and Run resumes.
func TestPartitionedStop(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	steps := 0
	e.GoOn(p1, "stopper", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
			steps++
			if steps == 3 {
				e.Stop()
				// The fiber parks; the engine halts at the barrier with
				// its wakeup still pending, so Run resumes it.
			}
		}
	})
	e.Run()
	if steps < 3 || steps == 10 {
		t.Fatalf("Stop ineffective: %d steps", steps)
	}
	e.Run()
	if steps != 10 {
		t.Fatalf("resume after Stop incomplete: %d steps", steps)
	}
}

// TestProcPart reports the partition a fiber lives on.
func TestProcPart(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	got := make([]PartID, 2)
	e.Go("root", func(p *Proc) { got[0] = p.Part() })
	e.GoOn(p1, "one", func(p *Proc) { got[1] = p.Part() })
	e.Run()
	if got[0] != 0 || got[1] != p1 {
		t.Fatalf("Part() = %v, want [0 %d]", got, p1)
	}
}

// TestGoOnCrossPartitionDuringRunPanics: run-time spawns must stay on the
// spawner's own partition.
func TestGoOnCrossPartitionDuringRunPanics(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	p2 := e.AddPartition("p2")
	var got any
	e.GoOn(p1, "spawner", func(p *Proc) {
		defer func() { got = recover() }()
		p.Sleep(1)
		e.GoOn(p2, "illegal", func(p *Proc) {})
	})
	e.Run()
	if got == nil {
		t.Fatal("expected cross-partition GoOn during run to panic")
	}
}

// TestWindowPanicReachesRunCaller: a panic in an event callback of a
// window with two active partitions reaches the Run caller.
func TestWindowPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1 := e.AddPartition("p1")
	p2 := e.AddPartition("p2")
	e.SendTo(p1, 1, func() {})
	e.SendTo(p2, 3, func() { panic("boom") })
	if got := runPanic(e); got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
}

// TestPartitionedEngineStatsAcrossWorkersMatchSerialMerge: the engine
// stats of two runs of one partitioned workload are identical and
// plausible.
func TestPartitionedEngineStatsAcrossWorkersMatchSerialMerge(t *testing.T) {
	_, s1, _ := partitionedRun(t, 99, 0)
	_, s2, _ := partitionedRun(t, 99, 0)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ between two runs: %+v vs %+v", s1, s2)
	}
	if s1.Events == 0 || s1.ProcsSpawned == 0 {
		t.Fatalf("implausible stats: %+v", s1)
	}
}
