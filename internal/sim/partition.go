// Conservative parallel discrete-event execution (PDES).
//
// AddPartition splits an engine into logical processes, each a shard with
// its own event heap and local clock. Run then proceeds in quantum
// windows: with t = the earliest pending event across all partitions and
// L = the lookahead (the minimum cross-partition latency, SetLookahead),
// every partition may safely dispatch its events in [t, t+L) without
// hearing from any other partition — a message sent during the window
// carries a delay >= L, so it lands at or after the window's end. Windows
// therefore run concurrently, one partition per host worker; at the
// barrier the coordinator drains every partition's outbox and applies the
// messages in the total order (at, sender partition, sender send-seq).
//
// Determinism: within a window a partition runs the exact sequential
// (at, seq) loop; the window boundaries depend only on event timestamps;
// and the barrier merge order is a pure function of message content. No
// step consults the worker count, so a run's output — every event, every
// emitted trace record, every counter — is byte-identical from 1 worker
// to N. Parallelism is purely a host-side execution detail.
//
// Safety rule: all cross-partition interaction must go through SendTo
// (or spawn-time GoOn). Queues, conds, resources, and waiter wakeups are
// partition-local; sharing them across partitions is a model bug that the
// race detector flags in tests.
//
// Partition resolution: nothing here asks a goroutine which partition it
// runs on. A process carries its shard (Proc.SendTo and the other context
// forms use it). Before each window it dispatches inline, on the Run
// caller's goroutine, the coordinator records the window's shard in
// Engine.inline, the one field the ambient Engine methods consult. A
// window dispatched on the worker pool has no such shard, so ambient
// calls there panic (see cur).
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
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
		done:  make(chan struct{}, 1),
		procs: make(map[*Proc]struct{}),
	}
	e.parts = append(e.parts, s)
	e.multi = true
	return s.id
}

// Partitions returns the number of partitions (1 for a classic sequential
// engine).
func (e *Engine) Partitions() int { return len(e.parts) }

// PartName returns the diagnostic name of a partition.
func (e *Engine) PartName(id PartID) string { return e.parts[id].name }

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

// SetWorkers overrides the number of host goroutines that dispatch quantum
// windows (runtime.GOMAXPROCS at NewEngine). Values < 1 mean 1. The
// worker count never affects results, only wall-clock time.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Workers returns the engine's window-dispatch worker bound.
func (e *Engine) Workers() int { return e.workers }

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
	e.stopAll.Store(false)
	for _, s := range e.parts {
		s.stopped = false
	}
	workers := e.workers
	if workers > len(e.parts) {
		workers = len(e.parts)
	}
	var pool *windowPool
	if workers > 1 {
		pool = newWindowPool(workers, len(e.parts))
		defer pool.close()
	}
	active := make([]*shard, 0, len(e.parts))
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
		active = active[:0]
		for _, s := range e.parts {
			if len(s.queue) > 0 && s.queue[0].at <= limit {
				active = append(active, s)
			}
		}
		if pool == nil || len(active) == 1 {
			for _, s := range active {
				e.inline = s
				s.dispatch(limit, true)
			}
		} else {
			e.inline = nil
			pool.dispatch(active, limit)
		}
		// Health counters, coordinator-side (single-threaded at the
		// barrier): each active shard participated in one window; the gap
		// between its clock and the window bound is the stall other
		// partitions could not overlap — a pure function of event
		// timestamps, so it is identical at every worker count.
		for _, s := range active {
			s.statWindows++
			if limit != math.MaxInt64 && s.now < limit {
				s.statStall += int64(limit - s.now)
			}
		}
		msgs = e.drainOutboxes(msgs)
		if e.stopAll.Load() {
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

// windowPool is the persistent worker set that dispatches quantum windows
// concurrently. One pool lives for the duration of a Run call; per window
// the coordinator enqueues the active shards and waits for all of them.
type windowPool struct {
	jobs chan windowJob
	wg   sync.WaitGroup
	// faults[i] is the panic raised by the window of the i-th active
	// shard, re-raised on the coordinator after the barrier. A panic ends
	// the run, so entries never need resetting.
	faults []any
}

type windowJob struct {
	i     int
	s     *shard
	limit Time
}

// newWindowPool starts n workers for an engine with parts partitions.
func newWindowPool(n, parts int) *windowPool {
	p := &windowPool{jobs: make(chan windowJob), faults: make([]any, parts)}
	for i := 0; i < n; i++ {
		go func() {
			for j := range p.jobs {
				p.run(j)
			}
		}()
	}
	return p
}

// run dispatches one window on a pool worker. A panic inside it is
// recorded instead of killing the process, so it reaches the Run caller
// exactly as it does when windows run inline.
func (p *windowPool) run(j windowJob) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.faults[j.i] = r
		}
	}()
	j.s.dispatch(j.limit, true)
}

// dispatch runs one window across the pool and blocks until every active
// shard has finished it (the barrier). If any window panicked, the panic
// of the lowest-numbered one — the one a single worker would have hit
// first — is re-raised here.
func (p *windowPool) dispatch(active []*shard, limit Time) {
	p.wg.Add(len(active))
	for i, s := range active {
		p.jobs <- windowJob{i: i, s: s, limit: limit}
	}
	p.wg.Wait()
	for _, r := range p.faults[:len(active)] {
		if r != nil {
			panic(r)
		}
	}
}

func (p *windowPool) close() { close(p.jobs) }
