package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// procFormsRun runs a seeded workload written only in the Proc forms —
// p.At, p.After, p.SendTo and p.Go — over four logical partitions and
// returns one log per logical partition. With partitioned set, logical
// partition i is engine partition i (lookahead 20); otherwise everything
// shares the serial engine's one partition and SendTo is plain After.
func procFormsRun(partitioned bool, workers int, seed int64) [][]string {
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
	e.SetWorkers(workers)
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
				p.After(st.after, func() { logf(e.PartNow(part(i)), "after%d", s) })
				p.At(p.Now()+st.at, func() { logf(e.PartNow(part(i)), "at%d", s) })
				to := st.to
				p.SendTo(part(to), st.delay, func() {
					logs[to] = append(logs[to], fmt.Sprintf("@%d msg %d.%d", e.PartNow(part(to)), i, s))
				})
				if s%3 == 0 {
					p.Go(fmt.Sprintf("child%d.%d", i, s), func(c *Proc) {
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

// TestProcFormsMatchSerialAcrossWorkers: a workload written in the Proc
// forms produces byte-identical logs at 1, 2 and 4 window workers, and
// the same timestamped events on every partition as on the serial
// engine. The serial comparison sorts each partition's log: the serial
// engine orders a barrier-delivered message against a local event at the
// same timestamp by its global sequence number, the partitioned one by
// barrier order, and both are deterministic.
func TestProcFormsMatchSerialAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 5, 23} {
		serial := procFormsRun(false, 1, seed)
		base := procFormsRun(true, 1, seed)
		for _, workers := range []int{2, 4} {
			if got := procFormsRun(true, workers, seed); !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d: workers=%d logs diverged from workers=1\n1: %v\n%d: %v", seed, workers, base, workers, got)
			}
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
// fiber on a two-partition engine at one worker sends from the fiber's
// partition — its clock and its outbox — exactly as Proc.SendTo does.
func TestAmbientSendToFromFiberAtOneWorker(t *testing.T) {
	const hop = 10
	e := NewEngine()
	src, dst := e.AddPartition("src"), e.AddPartition("dst")
	e.SetLookahead(hop)
	e.SetWorkers(1)
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

// TestAmbientCallInParallelWindowPanics: inside a window dispatched on
// the worker pool no partition is current, so an ambient call — from a
// fiber or from an event callback — panics, and the panic names the Proc
// form and reaches the Run caller.
func TestAmbientCallInParallelWindowPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine, p *Proc)
	}{
		{"fiber After", func(e *Engine, p *Proc) { e.After(1, func() {}) }},
		{"fiber SendTo", func(e *Engine, p *Proc) { e.SendTo(1, 10, func() {}) }},
		{"callback Now", func(e *Engine, p *Proc) { p.After(1, func() { e.Now() }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.SetLookahead(10)
			p1, p2 := e.AddPartition("p1"), e.AddPartition("p2")
			e.SetWorkers(2)
			e.GoOn(p1, "caller", func(p *Proc) {
				p.Sleep(1)
				tc.call(e, p)
				p.Sleep(1)
			})
			e.GoOn(p2, "bystander", func(p *Proc) { p.Sleep(3) })
			r := runPanic(e)
			if r == nil || !strings.Contains(fmt.Sprint(r), "Proc form") {
				t.Fatalf("Run panicked with %v, want the ambient-call panic naming the Proc form", r)
			}
		})
	}
}

// TestFiberPanicReachesRunCaller: a panic in a process body, or in an
// event its goroutine dispatches after taking over the loop, is re-raised
// on the goroutine that called Run instead of killing the process — on
// the serial engine and on a partitioned one at one and two workers.
func TestFiberPanicReachesRunCaller(t *testing.T) {
	bodies := []struct {
		name string
		body func(p *Proc)
	}{
		{"body", func(p *Proc) {
			p.Sleep(1)
			panic("proc boom")
		}},
		{"event", func(p *Proc) {
			p.After(2, func() { panic("proc boom") })
			p.Sleep(5)
		}},
	}
	for _, cfg := range []struct {
		name           string
		parts, workers int
	}{{"serial", 1, 1}, {"par1", 3, 1}, {"par2", 3, 2}} {
		for _, b := range bodies {
			t.Run(cfg.name+"/"+b.name, func(t *testing.T) {
				e := NewEngine()
				e.SetWorkers(cfg.workers)
				if cfg.parts > 1 {
					e.SetLookahead(10)
					for i := 1; i < cfg.parts; i++ {
						e.AddPartition(fmt.Sprintf("p%d", i))
					}
				}
				// A ticker on every partition keeps each window's
				// partitions active, so at two workers they run in
				// parallel.
				for i := 0; i < cfg.parts; i++ {
					e.GoOn(PartID(i), "ticker", func(p *Proc) {
						for k := 0; k < 5; k++ {
							p.Sleep(3)
						}
					})
				}
				e.GoOn(PartID(cfg.parts-1), "boom", b.body)
				if r := runPanic(e); fmt.Sprint(r) != "proc boom" {
					t.Fatalf("Run panicked with %v, want proc boom", r)
				}
			})
		}
	}
}
