// Conservative windowed discrete-event execution (PDES).
//
// AddPartition splits an engine into logical processes, each a shard with
// its own event heap and local clock. Run then proceeds in quantum
// windows: with t = the earliest pending event across all partitions and
// L = the lookahead (the minimum cross-partition latency, SetLookahead),
// every partition may dispatch its events in [t, t+L) without hearing
// from any other partition — a message sent during the window carries a
// delay >= L, so it lands at or after the window's end. The Run caller
// dispatches each window's active partitions one after another in
// partition order; at the barrier it drains every partition's outbox and
// applies the messages in the total order (at, sender partition, sender
// send-seq).
//
// Determinism: within a window a partition runs the exact sequential
// (at, seq) loop; the window boundaries depend only on event timestamps;
// and the barrier merge order is a pure function of message content, so
// a run's output — every event, every emitted trace record, every counter
// — is a pure function of the model.
//
// The windows run on the Run caller, not on host workers: at the fleet's
// grain (about eight events per partition per 150-cycle window) a window
// pool never beat one worker (DESIGN §11). Partitions stay as model
// structure, and the windows keep the exchange discipline a concurrent
// dispatcher would need.
//
// Locality rule: all cross-partition interaction must go through SendTo
// (or spawn-time GoOn). Queues, conds, resources, and waiter wakeups are
// partition-local; waking a waiter parked on another partition panics
// (see waiterRef.consume).
//
// Partition resolution: nothing here asks a goroutine which partition it
// runs on. A process carries its shard (Proc.SendTo and the other context
// forms use it). Before each window it dispatches, the coordinator records
// the window's shard in Engine.inline, the one field the ambient Engine
// methods consult.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// AddPartition creates a new partition and returns its id. Partitions must
// be created before the first Run; partition 0 (the shared partition)
// always exists. Multi-partition engines require SetLookahead before Run.
func (e *Engine) AddPartition(name string) PartID {
	if e.inRun {
		panic("sim: AddPartition while the engine is running")
	}
	s := &shard{
		eng:   e,
		id:    PartID(len(e.parts)),
		name:  name,
		procs: make(map[*Proc]struct{}),
	}
	e.parts = append(e.parts, s)
	e.multi = true
	return s.id
}

// Partitions returns the number of partitions (1 for a classic sequential
// engine).
func (e *Engine) Partitions() int { return len(e.parts) }

// SetLookahead declares the minimum cross-partition latency: every SendTo
// delay must be >= d. It bounds the quantum window width; larger lookahead
// means fewer barriers. Machines derive it from their cost model (the IPI
// wire latency is the fastest cross-CPU path).
func (e *Engine) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	e.lookahead = d
}

// SetWorkers does nothing: every window runs on the Run caller. It stays
// because the armbench fleet workload still calls it to set the window
// worker count of the pool the engine no longer has.
func (e *Engine) SetWorkers(int) {}

// GoOn spawns a process on a specific partition at that partition's
// current time. During a run, processes may only spawn onto their own
// partition (use SendTo to request a remote spawn after the lookahead
// delay); at setup time any partition is fair game.
func (e *Engine) GoOn(part PartID, name string, body func(p *Proc)) *Proc {
	s := e.parts[part]
	if e.inRun && e.multi && e.cur() != s {
		panic(fmt.Sprintf("sim: GoOn(%d) from partition %d while running; cross-partition spawns must go through SendTo", part, e.cur().id))
	}
	return e.spawnOn(s, s.now, name, body)
}

// SendTo schedules fn to run on the given partition d cycles from the
// sending partition's current time; the sender is the partition ambient
// calls act on (see cur), and Proc.SendTo sends from the process's own.
// On the sender's own partition (or a single-partition engine) it is
// exactly After. Across partitions the delay must be >= the engine's
// lookahead — that bound is what makes the quantum windows safe — and the
// message is buffered in the sender's outbox until the next barrier,
// where all messages are applied in the deterministic (at, sender,
// send-seq) order. Outside a run it lands directly on the target.
func (e *Engine) SendTo(part PartID, d Time, fn func()) { e.sendFrom(e.cur(), part, d, fn) }

// sendFrom is SendTo from shard src.
func (e *Engine) sendFrom(src *shard, part PartID, d Time, fn func()) {
	dst := e.parts[part]
	if dst == src || !e.inRun {
		dst.at(dst.now+d, fn)
		return
	}
	if d < e.lookahead {
		panic(fmt.Sprintf("sim: SendTo delay %d below lookahead %d (partition %d -> %d)", d, e.lookahead, src.id, part))
	}
	src.sendSeq++
	src.statMsgs++
	src.outbox = append(src.outbox, xmsg{
		at:   src.now + d,
		from: src.id,
		seq:  src.sendSeq,
		to:   part,
		fn:   fn,
	})
}

// runQuanta is the multi-partition Run/RunUntil body: lookahead-bounded
// windows separated by message barriers.
func (e *Engine) runQuanta(deadline Time, hasDeadline bool) {
	if e.lookahead <= 0 {
		panic("sim: multi-partition engine requires SetLookahead before Run")
	}
	e.inRun = true
	defer func() { e.inRun, e.inline = false, nil }()
	e.stopAll = false
	for _, s := range e.parts {
		s.stopped = false
	}
	var msgs []xmsg
	for {
		// t = earliest pending event across partitions; the window is
		// [t, t+L), inclusive bound t+L-1.
		t := Time(math.MaxInt64)
		none := true
		for _, s := range e.parts {
			if len(s.queue) > 0 {
				none = false
				if s.queue[0].at < t {
					t = s.queue[0].at
				}
			}
		}
		if none {
			break
		}
		if hasDeadline && t > deadline {
			break
		}
		limit := t + e.lookahead - 1
		if limit < t { // overflow guard
			limit = math.MaxInt64
		}
		if hasDeadline && limit > deadline {
			limit = deadline
		}
		// Each active shard participates in one window; the gap between
		// its clock and the window bound is the stall a parallel
		// dispatcher could not overlap — a pure function of event
		// timestamps.
		for _, s := range e.parts {
			if len(s.queue) == 0 || s.queue[0].at > limit {
				continue
			}
			e.inline = s
			s.dispatch(limit, true)
			s.statWindows++
			if limit != math.MaxInt64 && s.now < limit {
				s.statStall += int64(limit - s.now)
			}
		}
		msgs = e.drainOutboxes(msgs)
		if e.stopAll {
			break
		}
	}
}

// drainOutboxes applies every buffered cross-partition message at the
// barrier, in the total order (at, sender partition, sender send-seq).
// The scratch slice is reused across barriers. Conservative invariant:
// every message timestamp is at or beyond the window that just ran, so
// it can never be earlier than its destination's clock.
func (e *Engine) drainOutboxes(scratch []xmsg) []xmsg {
	msgs := scratch[:0]
	for _, s := range e.parts {
		if len(s.outbox) == 0 {
			continue
		}
		msgs = append(msgs, s.outbox...)
		for i := range s.outbox {
			s.outbox[i] = xmsg{} // release the closures
		}
		s.outbox = s.outbox[:0]
	}
	if len(msgs) == 0 {
		return msgs
	}
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
	for i := range msgs {
		m := &msgs[i]
		dst := e.parts[m.to]
		if m.at < dst.now {
			panic(fmt.Sprintf("sim: cross-partition message at %d behind partition %d clock %d (lookahead violated)", m.at, m.to, dst.now))
		}
		dst.at(m.at, m.fn)
		*m = xmsg{} // release the closure
	}
	return msgs[:0]
}
