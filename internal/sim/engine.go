//go:build go1.23

// This file needs Go 1.23 for iter.Pull, but go.mod stays at 1.22: the
// armbench module pins 1.22 and requires this one, so a higher go line
// here would stop its build with "go: updates to go.mod needed". The
// constraint raises this file's language version instead.

// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine models virtual time in CPU cycles. Simulated activities run as
// processes (fibers): ordinary Go functions executing as coroutines
// (iter.Pull) that only their partition's dispatcher resumes. Because
// processes within a partition run one at a time and all ties in the event
// queue are broken by a monotonic sequence number, a simulation produces
// identical results on every run regardless of host scheduling.
//
// An engine is born with a single partition and behaves exactly like a
// classic sequential event loop. AddPartition splits the simulation into
// additional logical processes run in conservative lookahead windows
// (partition.go); single-partition engines never touch that machinery.
//
// Processes advance time with Proc.Sleep, exchange data through Queue, and
// serialize on Resource. Plain callbacks can be scheduled with Engine.At;
// callbacks run inline in the engine and must not block.
//
// Scheduling acts on one partition. Proc.SendTo sends from the partition
// the process lives on, and a callback routed to a partition reads that
// partition's clock with PartNow. The ambient forms (Engine.At, After,
// SendTo, Go, Now) resolve the partition without any lookup: on a
// single-partition engine, or outside a run, they act on partition 0;
// during a run they act on the partition whose window the Run caller is
// dispatching.
package sim

import (
	"fmt"
	"iter"
)

// Time is a point in virtual time, measured in CPU cycles. All PCPUs in a
// simulated machine share one clock domain (the paper's measurement
// methodology synchronizes counters across CPUs for exactly this reason).
type Time int64

// event is a scheduled engine action: either a plain callback (fn non-nil)
// or the resumption of parked process p. Events are stored by value in the
// heap, so steady-state scheduling performs no allocation.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

// eventHeap is a concrete binary min-heap of events ordered by (at, seq).
// Events live by value in the backing array, which is the pool: slots are
// reused across push/pop cycles, so the hot path neither boxes through
// interface{} (as container/heap would) nor allocates per event.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear the vacated slot so its closure can be collected
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// PartID identifies one partition (logical process) of an engine. Partition
// 0 always exists; AddPartition allocates the rest.
type PartID int

// shard is the per-partition half of the engine: a private clock, event
// heap, the process it last resumed, and work counters. A
// single-partition engine is exactly one shard (Engine.root), and every
// hot-path method operates on a shard, so splitting the engine added no
// work to the sequential fast path.
type shard struct {
	eng     *Engine
	id      PartID
	name    string
	now     Time
	seq     uint64
	queue   eventHeap
	running *Proc // process last resumed in this dispatch (nil = none yet)
	limit   Time  // inclusive dispatch bound for the current window
	hasLim  bool
	procs   map[*Proc]struct{} // live processes, ended by Run if left parked

	// Cross-partition outbox: messages produced by this shard during a
	// quantum window, drained by the coordinator at the barrier. sendSeq
	// is the shard-local send order, part of the deterministic merge key.
	outbox  []xmsg
	sendSeq uint64

	// Work counters behind Stats(). They are driven exclusively by the
	// deterministic event sequence (pushes, pops, switches, spawns), so
	// their values are part of a run's reproducible output.
	statEvents   int64
	statSwitches int64
	statSpawned  int64
	statHeapHW   int

	// PDES health counters (multi-partition only): quantum windows this
	// shard participated in, cycles its clock lagged the window bound at
	// the barrier, and messages it buffered for other partitions. All
	// three are pure functions of event timestamps, never wall time.
	statWindows int64
	statStall   int64
	statMsgs    int64
}

// xmsg is a timestamped inter-partition message. Messages are buffered in
// the sender's outbox and applied at the next quantum barrier in the total
// order (at, from, seq).
type xmsg struct {
	at   Time
	from PartID
	seq  uint64
	to   PartID
	fn   func()
}

// Engine owns the virtual clock(s) and event queue(s). The zero value is
// not usable; construct with NewEngine.
//
// The Run caller is the one dispatcher: it resumes process coroutines one
// at a time. A parking process runs the partition's loop itself, so a
// process that wakes itself next costs no switch at all; waking another
// process yields to the dispatcher, which resumes it.
//
// With more than one partition (AddPartition), Run executes the
// conservative algorithm in partition.go: lookahead-bounded quantum
// windows, each partition's dispatched in turn, separated by barriers
// that exchange cross-partition messages in a deterministic order.
//
// The ambient methods (At, After, SendTo, Go, Now) act on partition 0 of
// a single-partition engine or outside a run, and on the partition whose
// window is being dispatched during one (see the package comment).
type Engine struct {
	root  shard
	parts []*shard // parts[0] == &root; more after AddPartition
	multi bool     // len(parts) > 1

	// lookahead is the minimum cross-partition latency: every SendTo
	// delay must be >= lookahead, which is what makes a window of that
	// width safe to dispatch without hearing from other partitions.
	lookahead Time
	// inline is the shard whose window Run is dispatching (multi mode
	// only). Ambient calls during a run resolve to it.
	inline *shard
	// inRun is true while Run is executing (multi mode uses it to
	// distinguish setup-time SendTo/GoOn from run-time calls).
	inRun bool

	procTap func(t Time, what, name string)

	// tele is the telemetry half of the run scope NewEngine captured.
	tele any
}

// NewEngine returns an engine with the clock at zero, an empty queue, and
// a single partition. It captures the calling goroutine's run scope (see
// CollectStats): the engine registers with the scope's stats collector,
// if any, and keeps its telemetry half for Telemetry.
func NewEngine() *Engine {
	s := scopeOf(goid())
	e := &Engine{tele: s.tele}
	e.root.eng = e
	e.root.id = 0
	e.root.name = "shared"
	e.root.procs = make(map[*Proc]struct{})
	e.parts = []*shard{&e.root}
	if s.stats != nil {
		s.stats.attach(e)
	}
	return e
}

// Telemetry returns the telemetry half of the run scope the engine was
// built in (see WithTelemetry), or nil. It is opaque to sim: hw.New
// asserts it to the telemetry collector that samples the machine.
func (e *Engine) Telemetry() any { return e.tele }

// cur returns the shard ambient calls act on: the root shard on a
// single-partition engine or outside a run, and during a run the shard
// whose window is being dispatched.
func (e *Engine) cur() *shard {
	if !e.multi || !e.inRun {
		return &e.root
	}
	return e.inline
}

// Now returns the current virtual time: during a run, the clock of the
// partition ambient calls act on (see cur); outside a run, the furthest
// partition clock (the machine's elapsed time).
func (e *Engine) Now() Time {
	if !e.multi {
		return e.root.now
	}
	if e.inRun {
		return e.cur().now
	}
	var t Time
	for _, s := range e.parts {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// PartNow returns partition part's clock. Code running on that partition
// (one of its processes, or a callback SendTo routed there) reads its own
// clock this way without resolving the calling context.
func (e *Engine) PartNow(part PartID) Time { return e.parts[part].now }

// SetProcTap installs the process-lifecycle tap: fn receives the
// process's partition clock, the event verb ("start", "exit") and the
// process name. Pass nil to disable.
func (e *Engine) SetProcTap(fn func(t Time, what, name string)) { e.procTap = fn }

// noteProc reports a process-lifecycle event to the tap.
func (s *shard) noteProc(what string, p *Proc) {
	if tap := s.eng.procTap; tap != nil {
		tap(s.now, what, p.name)
	}
}

// at schedules fn on this shard at absolute time t (clamped to now).
func (s *shard) at(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
	s.noteHeapDepth()
}

// At schedules fn to run at absolute time t (clamped to now) on the
// partition ambient calls act on (see cur). fn executes inline in the
// engine loop and must not block or park.
func (e *Engine) At(t Time, fn func()) { e.cur().at(t, fn) }

// After schedules fn to run d cycles from now on the partition ambient
// calls act on.
func (e *Engine) After(d Time, fn func()) {
	s := e.cur()
	s.at(s.now+d, fn)
}

// wakeAt schedules the resumption of parked process p at absolute time t
// (clamped to now). The wakeup is stored by value in the event heap, so
// the Sleep/Yield path allocates nothing. A park has exactly one pending
// wakeup, and it is always partition-local: p lives on this shard.
func (s *shard) wakeAt(t Time, p *Proc) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, p: p})
	s.noteHeapDepth()
}

// wake schedules the resumption of p, taken off a queue or resource wait
// list, at the current time of p's own partition. Wait lists are
// partition-local (see partition.go): during a run p's shard must be the
// one whose window is executing the wake, and a wake from another
// partition panics.
func (e *Engine) wake(p *Proc) {
	s := p.sh
	if e.multi && e.inRun && s != e.inline {
		panic(fmt.Sprintf("sim: partition %d wakes %s parked on partition %d; cross-partition wakes must go through SendTo",
			e.inline.id, p.name, s.id))
	}
	s.wakeAt(s.now, p)
}

// noteHeapDepth tracks the event heap's high-water mark after a push.
func (s *shard) noteHeapDepth() {
	if n := len(s.queue); n > s.statHeapHW {
		s.statHeapHW = n
	}
}

// loop dispatches pending events until a process wakes, and returns it,
// or until the shard goes idle (queue empty or limit reached), and returns
// nil. Waking a process other than the one last resumed counts as a
// switch. A wakeup for a process that is not parked is a second wakeup of
// one park, which the engine never arms, so it panics.
func (s *shard) loop() *Proc {
	for {
		if len(s.queue) == 0 {
			return nil
		}
		if s.hasLim && s.queue[0].at > s.limit {
			return nil
		}
		ev := s.queue.pop()
		if ev.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %d -> %d", s.now, ev.at))
		}
		s.now = ev.at
		s.statEvents++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		if !p.parked {
			panic(fmt.Sprintf("sim: wakeup at %d for %s, which is not parked", ev.at, p.name))
		}
		p.parked = false
		if p != s.running {
			s.running = p
			s.statSwitches++
		}
		return p
	}
}

// Run processes events until every partition's queue is empty. A panic
// inside a process body is re-raised on the goroutine that called Run. On
// a multi-partition engine Run executes the quantum algorithm (see
// partition.go).
//
// A process still parked when the queues drain waits for something no
// pending event will do, so Run ends its coroutine: it unwinds from its
// park, running its deferred calls but emitting no "exit" to the process
// tap.
func (e *Engine) Run() {
	e.inRun = true
	defer e.endRun()
	if e.multi {
		e.runQuanta()
		return
	}
	e.root.dispatch(0, false)
}

// endRun leaves the run and ends the coroutine of every process it left
// parked. An ended process counts as not parked, so a later wakeup of it
// panics in loop instead of resuming nothing.
func (e *Engine) endRun() {
	e.inRun, e.inline = false, nil
	for _, s := range e.parts {
		for p := range s.procs {
			p.stop()
			p.parked = false
		}
		clear(s.procs)
	}
}

// dispatch runs the shard's loop from the calling goroutine, bounded by
// limit (inclusive) when hasLim, resuming each woken process until the
// shard goes idle. A process parks by yielding the next process to resume
// (nil when idle); once its body returns, the loop continues here. A
// panic in a body, or in an event its coroutine dispatched, is re-raised
// here by iter.Pull.
func (s *shard) dispatch(limit Time, hasLim bool) {
	s.hasLim, s.limit = hasLim, limit
	s.running = nil
	for p := s.loop(); p != nil; {
		next, live := p.resume()
		if !live {
			next = s.loop()
		}
		p = next
	}
	s.hasLim = false
}

// spawnOn creates the process and its coroutine on shard s, first resumed
// by the dispatch of its wakeup at time t.
func (e *Engine) spawnOn(s *shard, t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, sh: s, name: name, parked: true}
	s.procs[p] = struct{}{}
	s.statSpawned++
	p.resume, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		defer func() {
			if r := recover(); r != nil && r != (ended{}) {
				panic(r)
			}
		}()
		p.yield = yield
		s.noteProc("start", p)
		body(p)
		s.noteProc("exit", p)
		delete(s.procs, p)
	})
	s.wakeAt(t, p)
	return p
}

// Go spawns a new process that begins executing body at the current time,
// on the partition ambient calls act on. The body runs as a coroutine: it
// executes only while its partition's dispatcher has resumed it, and
// gives control back whenever it parks.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	s := e.cur()
	return e.spawnOn(s, s.now, name, body)
}

// Proc is a simulated process. All methods must be called from the process's
// own body function; calling them from outside the simulation is a
// programming error.
type Proc struct {
	eng    *Engine
	sh     *shard
	name   string
	parked bool // from spawn or park until its one wakeup is dispatched

	// resume runs the coroutine until it parks, returning the process it
	// yields (nil when the shard went idle); live is false once the body
	// has returned. yield is the body's side of the same handoff, and
	// stop ends a coroutine suspended in yield (see Run).
	resume func() (next *Proc, live bool)
	yield  func(*Proc) bool
	stop   func()
}

// ended is the panic a parked process unwinds with when Run ends its
// coroutine; the coroutine wrapper recovers it and nothing else.
type ended struct{}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time of the process's partition.
func (p *Proc) Now() Time { return p.sh.now }

// SendTo is Engine.SendTo sent from p's partition, with p's clock and
// outbox.
func (p *Proc) SendTo(part PartID, d Time, fn func()) { p.eng.sendFrom(p.sh, part, d, fn) }

// park gives control back to the engine until its one wakeup unparks p.
// The parking coroutine runs the shard loop itself: if the next wakeup is
// its own it simply returns; otherwise it yields the woken process (nil
// when the shard goes idle) to the dispatcher and is suspended until
// resumed. Resumed by Run's stop instead, it unwinds with ended.
func (p *Proc) park() {
	p.parked = true
	if next := p.sh.loop(); next != p && !p.yield(next) {
		panic(ended{})
	}
}

// Sleep advances the process's local view of time by d cycles. Other events
// in the system proceed during the sleep. d <= 0 returns immediately without
// yielding.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.sh.wakeAt(p.sh.now+d, p)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// events queued for this instant run first.
func (p *Proc) Yield() {
	p.sh.wakeAt(p.sh.now, p)
	p.park()
}
