package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// procFormsRun runs a seeded workload written in the forms a process
// schedules with — e.After, e.At and e.Go, which during a run act on the
// process's own partition, and p.SendTo — over four logical partitions
// and returns one log per logical partition. With partitioned set, logical
// partition i is engine partition i (lookahead 20); otherwise everything
// shares the serial engine's one partition and SendTo is plain After.
func procFormsRun(partitioned bool, seed int64) [][]string {
	const lookahead, nparts = 20, 4
	e := NewEngine()
	part := func(i int) PartID { return 0 }
	if partitioned {
		e.SetLookahead(lookahead)
		for i := 1; i < nparts; i++ {
			e.AddPartition(fmt.Sprintf("p%d", i))
		}
		part = func(i int) PartID { return PartID(i) }
	}
	logs := make([][]string, nparts)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nparts; i++ {
		i := i
		type step struct {
			sleep, after, at, delay Time
			to                      int
		}
		steps := make([]step, 10)
		for s := range steps {
			steps[s] = step{
				sleep: Time(1 + rng.Intn(30)),
				after: Time(rng.Intn(15)),
				at:    Time(rng.Intn(15)),
				delay: lookahead + Time(rng.Intn(25)),
				to:    rng.Intn(nparts),
			}
		}
		logf := func(now Time, format string, args ...any) {
			logs[i] = append(logs[i], fmt.Sprintf("@%d ", now)+fmt.Sprintf(format, args...))
		}
		e.GoOn(part(i), fmt.Sprintf("main%d", i), func(p *Proc) {
			for s, st := range steps {
				p.Sleep(st.sleep)
				logf(p.Now(), "step%d", s)
				e.After(st.after, func() { logf(e.PartNow(part(i)), "after%d", s) })
				e.At(p.Now()+st.at, func() { logf(e.PartNow(part(i)), "at%d", s) })
				to := st.to
				p.SendTo(part(to), st.delay, func() {
					logs[to] = append(logs[to], fmt.Sprintf("@%d msg %d.%d", e.PartNow(part(to)), i, s))
				})
				if s%3 == 0 {
					e.Go(fmt.Sprintf("child%d.%d", i, s), func(c *Proc) {
						c.Sleep(st.after + 1)
						logf(c.Now(), "child%d", s)
					})
				}
			}
		})
	}
	e.Run()
	return logs
}

// TestProcFormsMatchSerialAcrossWorkers: a workload written in those
// forms produces byte-identical logs in two partitioned runs, and the
// same timestamped events on every partition as on the serial engine.
// The serial comparison sorts each partition's log: the serial engine
// orders a barrier-delivered message against a local event at the same
// timestamp by its global sequence number, the partitioned one by
// barrier order, and both are deterministic.
func TestProcFormsMatchSerialAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 5, 23} {
		serial := procFormsRun(false, seed)
		base := procFormsRun(true, seed)
		if got := procFormsRun(true, seed); !reflect.DeepEqual(base, got) {
			t.Fatalf("seed %d: logs diverged between two partitioned runs\nfirst: %v\nsecond: %v", seed, base, got)
		}
		for i := range serial {
			want := append([]string(nil), serial[i]...)
			got := append([]string(nil), base[i]...)
			sort.Strings(want)
			sort.Strings(got)
			if len(want) == 0 || !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: partition %d events differ from the serial engine\nserial: %v\npartitioned: %v", seed, i, want, got)
			}
		}
	}
}

// TestAmbientSendToFromFiberAtOneWorker: an ambient Engine.SendTo from a
// fiber on a two-partition engine sends from the fiber's partition — its
// clock and its outbox — exactly as Proc.SendTo does.
func TestAmbientSendToFromFiberAtOneWorker(t *testing.T) {
	const hop = 10
	e := NewEngine()
	src, dst := e.AddPartition("src"), e.AddPartition("dst")
	e.SetLookahead(hop)
	var landed []Time
	var nowInFiber Time
	e.GoOn(src, "sender", func(p *Proc) {
		p.Sleep(50)
		nowInFiber = e.Now()
		for i := 0; i < 3; i++ {
			e.SendTo(dst, hop, func() { landed = append(landed, e.PartNow(dst)) })
			p.Sleep(hop)
		}
	})
	e.Run()
	if nowInFiber != 50 {
		t.Fatalf("Engine.Now in the sender read %d, want its partition clock 50", nowInFiber)
	}
	if want := []Time{60, 70, 80}; !reflect.DeepEqual(landed, want) {
		t.Fatalf("messages landed at %v, want %v (sender clock + hop)", landed, want)
	}
	st := e.Stats()
	if got := st.Parts[src].OutboxMsgs; got != 3 || st.OutboxMsgs != 3 {
		t.Fatalf("sender outbox carried %d of %d messages, want 3 of 3", got, st.OutboxMsgs)
	}
}

// runPanic runs e and returns what Run panicked with.
func runPanic(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestAmbientCallActsOnWindowPartition: during a run an ambient call —
// from a fiber or from an event callback — acts on the partition whose
// window is being dispatched. The caller on p1 calls at its clock 5 while
// p2, dispatched after it in the window, still reads 0, so each landing
// time shows which partition's clock the call used.
func TestAmbientCallActsOnWindowPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine, p *Proc, got *Time)
		want Time
	}{
		{"fiber After", func(e *Engine, p *Proc, got *Time) { e.After(1, func() { *got = e.Now() }) }, 6},
		{"fiber SendTo", func(e *Engine, p *Proc, got *Time) { e.SendTo(2, 10, func() { *got = e.Now() }) }, 15},
		{"callback Now", func(e *Engine, p *Proc, got *Time) { e.At(p.Now()+1, func() { *got = e.Now() }) }, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.SetLookahead(10)
			p1, p2 := e.AddPartition("p1"), e.AddPartition("p2")
			got := Time(-1)
			e.GoOn(p1, "caller", func(p *Proc) {
				p.Sleep(5)
				tc.call(e, p, &got)
				p.Sleep(1)
			})
			e.GoOn(p2, "bystander", func(p *Proc) { p.Sleep(3) })
			e.Run()
			if got != tc.want {
				t.Fatalf("the call's callback read clock %d, want %d on the caller's partition", got, tc.want)
			}
		})
	}
}

// TestCrossPartitionWakePanics: a queue is partition-local, so a proc on
// p1 sending to a queue whose receiver is parked on p2 is a model bug;
// Run panics and names SendTo as the way across.
func TestCrossPartitionWakePanics(t *testing.T) {
	e := NewEngine()
	e.SetLookahead(10)
	p1, p2 := e.AddPartition("p1"), e.AddPartition("p2")
	q := NewQueue[int](e, "q")
	e.GoOn(p2, "receiver", func(p *Proc) { q.Recv(p) })
	e.GoOn(p1, "sender", func(p *Proc) {
		p.Sleep(20)
		q.Send(1)
	})
	r := runPanic(e)
	if msg := fmt.Sprint(r); !strings.Contains(msg, "receiver parked on partition 2") || !strings.Contains(msg, "SendTo") {
		t.Fatalf("Run panicked with %v, want the cross-partition wake panic naming SendTo", r)
	}
}

// TestFiberPanicReachesRunCaller: a panic in a process body, or in an
// event its coroutine dispatches after taking over the loop, is re-raised
// on the goroutine that called Run instead of killing the process — on
// the serial engine and on a partitioned one.
func TestFiberPanicReachesRunCaller(t *testing.T) {
	bodies := []struct {
		name string
		body func(e *Engine, p *Proc)
	}{
		{"body", func(e *Engine, p *Proc) {
			p.Sleep(1)
			panic("proc boom")
		}},
		{"event", func(e *Engine, p *Proc) {
			e.After(2, func() { panic("proc boom") })
			p.Sleep(5)
		}},
	}
	for _, cfg := range []struct {
		name  string
		parts int
	}{{"serial", 1}, {"par1", 3}} {
		for _, b := range bodies {
			t.Run(cfg.name+"/"+b.name, func(t *testing.T) {
				e := NewEngine()
				if cfg.parts > 1 {
					e.SetLookahead(10)
					for i := 1; i < cfg.parts; i++ {
						e.AddPartition(fmt.Sprintf("p%d", i))
					}
				}
				// A ticker on every partition keeps each window's
				// partitions active.
				for i := 0; i < cfg.parts; i++ {
					e.GoOn(PartID(i), "ticker", func(p *Proc) {
						for k := 0; k < 5; k++ {
							p.Sleep(3)
						}
					})
				}
				e.GoOn(PartID(cfg.parts-1), "boom", func(p *Proc) { b.body(e, p) })
				if r := runPanic(e); fmt.Sprint(r) != "proc boom" {
					t.Fatalf("Run panicked with %v, want proc boom", r)
				}
			})
		}
	}
}
