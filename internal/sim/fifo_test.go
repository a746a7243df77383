package sim

import (
	"math/rand"
	"testing"
)

// TestFifoProperty drives random push/pop mixes against a plain-slice
// reference. Every pop must return the reference's oldest element, len
// must match, and every slot outside the live window [head, len) must be
// zero, so neither popping nor compacting pins a stale pointer. The mixes
// are biased from pop-heavy to push-heavy so the run crosses both the
// rewind (a drain) and the in-place compaction (full, at least half
// popped).
func TestFifoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	var rewinds, compactions int
	for iter := 0; iter < 200; iter++ {
		var f fifo[*int]
		var ref []*int
		pushBias := 0.3 + 0.4*rng.Float64()
		for op := 0; op < 500; op++ {
			if len(ref) == 0 || rng.Float64() < pushBias {
				v := new(int)
				*v = op
				compacts := len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf)
				oldCap := cap(f.buf)
				f.push(v)
				ref = append(ref, v)
				if compacts {
					if f.head != 0 || cap(f.buf) != oldCap {
						t.Fatalf("compaction grew or kept head: head=%d cap=%d, was cap %d", f.head, cap(f.buf), oldCap)
					}
					compactions++
				}
			} else {
				got := f.pop()
				if got != ref[0] {
					t.Fatalf("iter %d op %d: pop = %d, want %d", iter, op, *got, *ref[0])
				}
				ref = ref[1:]
				if len(ref) == 0 && cap(f.buf) > 0 {
					if f.head != 0 || len(f.buf) != 0 {
						t.Fatalf("drained fifo did not rewind: head=%d len=%d", f.head, len(f.buf))
					}
					rewinds++
				}
			}
			if f.len() != len(ref) {
				t.Fatalf("iter %d op %d: len = %d, want %d", iter, op, f.len(), len(ref))
			}
			all := f.buf[:cap(f.buf)]
			for i, v := range all {
				if (i < f.head || i >= len(f.buf)) && v != nil {
					t.Fatalf("iter %d op %d: slot %d outside [%d, %d) not cleared", iter, op, i, f.head, len(f.buf))
				}
			}
		}
	}
	if rewinds == 0 || compactions == 0 {
		t.Fatalf("mixes never crossed both paths: %d rewinds, %d compactions", rewinds, compactions)
	}
}

// TestQueuePingPongAllocatesNothing: once a Send/Recv ping-pong reaches
// steady state, a round allocates nothing, so a 1000-round run allocates
// exactly what a 100-round run does. The queues' backing arrays are
// reused as they drain instead of shrinking under each pop.
func TestQueuePingPongAllocatesNothing(t *testing.T) {
	pingPong := func(rounds int) func() {
		return func() {
			e := NewEngine()
			ping := NewQueue[int](e, "ping")
			pong := NewQueue[int](e, "pong")
			e.Go("client", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					ping.Send(i)
					pong.Recv(p)
				}
			})
			e.Go("server", func(p *Proc) {
				for i := 0; i < rounds; i++ {
					v := ping.Recv(p)
					p.Sleep(1)
					pong.Send(v)
				}
			})
			e.Run()
			if e.Now() != Time(rounds) {
				t.Fatalf("%d rounds ended at %d", rounds, e.Now())
			}
		}
	}
	short := testing.AllocsPerRun(20, pingPong(100))
	long := testing.AllocsPerRun(20, pingPong(1000))
	if short != long {
		t.Fatalf("100 rounds allocate %v times and 1000 rounds %v, want equal", short, long)
	}
}
