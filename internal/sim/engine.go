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
// coordinate through Cond and Resource. Plain callbacks can be scheduled
// with Engine.At; callbacks run inline in the engine and must not block.
//
// Scheduling comes in two forms. The context forms (Proc.At, Proc.After,
// Proc.SendTo, Proc.Go) act on the partition the process lives on, and a
// callback routed to a partition reads that partition's clock with
// PartNow. The ambient forms (Engine.At, After, SendTo, Go, GoAt, Now,
// Stop) resolve the partition without any lookup: on a single-partition
// engine, or outside a run, they act on partition 0; during a run they
// act on the partition whose window the Run caller is dispatching.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is a point in virtual time, measured in CPU cycles. All PCPUs in a
// simulated machine share one clock domain (the paper's measurement
// methodology synchronizes counters across CPUs for exactly this reason).
type Time int64

// event is a scheduled engine action: either a plain callback (fn non-nil)
// or the one-shot resumption of a parked process (w non-nil, gen holding
// the waiter generation the wakeup was armed for). Events are stored by
// value in the heap, so steady-state scheduling performs no allocation.
type event struct {
	at  Time
	seq uint64
	gen uint64
	w   *waiter
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
	limit   Time  // inclusive dispatch bound for the current window / RunUntil
	hasLim  bool
	stopped bool
	procs   map[*Proc]struct{}

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
// The ambient methods (At, After, SendTo, Go, GoAt, Now, Stop) act on
// partition 0 of a single-partition engine or outside a run, and on the
// partition whose window is being dispatched during one (see the package
// comment).
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
	// stopAll requests a full stop at the next quantum barrier.
	stopAll bool
	// inRun is true while Run/RunUntil is executing (multi mode uses it
	// to distinguish setup-time SendTo/GoOn from run-time calls).
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

// wakeAt schedules the one-shot resumption of w's process at absolute time
// t (clamped to now). The registration is stored by value in the event
// heap and captures w's current generation, so the Sleep/Yield path
// allocates nothing and stale wakeups are no-ops. Wakeups are always
// partition-local: w's process lives on this shard.
func (s *shard) wakeAt(t Time, w *waiter) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, w: w, gen: w.gen})
	s.noteHeapDepth()
}

// noteHeapDepth tracks the event heap's high-water mark after a push.
func (s *shard) noteHeapDepth() {
	if n := len(s.queue); n > s.statHeapHW {
		s.statHeapHW = n
	}
}

// Stop makes Run return after the current event completes (on a
// multi-partition engine: after the current quantum window completes, so
// the stop point is deterministic). Pending events are retained; Run may
// be called again to continue.
func (e *Engine) Stop() {
	s := e.cur()
	s.stopped = true
	e.stopAll = true
}

// loop dispatches pending events until a process wakes, and returns it,
// or until the shard goes idle (queue empty, Stop called, or limit
// reached), and returns nil. Waking a process other than the one last
// resumed counts as a switch.
func (s *shard) loop() *Proc {
	for {
		if len(s.queue) == 0 || s.stopped {
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
		w := ev.w
		if w.gen != ev.gen {
			continue // stale wakeup: another path already woke the process
		}
		w.gen++
		p := w.p
		p.parked = false
		if p != s.running {
			s.running = p
			s.statSwitches++
		}
		return p
	}
}

// Run processes events until the queue is empty or Stop is called. Parked
// processes whose wakeups are never scheduled are simply abandoned, their
// coroutines left suspended at no cost to determinism. On a
// multi-partition engine Run executes the quantum algorithm (see
// partition.go). A panic inside a process body is re-raised on the
// goroutine that called Run.
func (e *Engine) Run() {
	if e.multi {
		e.runQuanta(0, false)
		return
	}
	e.runRoot(0, false)
}

// RunUntil processes events with timestamps <= deadline, then sets the clock
// to deadline if it has not already passed it. Like Run, it panics if a
// dispatched event would move time backwards.
func (e *Engine) RunUntil(deadline Time) {
	if e.multi {
		e.runQuanta(deadline, true)
		for _, s := range e.parts {
			if s.now < deadline {
				s.now = deadline
			}
		}
		return
	}
	e.runRoot(deadline, true)
	if e.root.now < deadline {
		e.root.now = deadline
	}
}

// runRoot is the single-partition Run/RunUntil body.
func (e *Engine) runRoot(deadline Time, hasDeadline bool) {
	e.inRun = true
	defer func() { e.inRun = false }()
	e.root.stopped = false
	e.root.dispatch(deadline, hasDeadline)
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

// ParkedProcs returns the names of processes that are currently parked,
// across all partitions, sorted; useful for diagnosing stalled simulations
// in tests.
func (e *Engine) ParkedProcs() []string {
	var names []string
	for _, s := range e.parts {
		for p := range s.procs {
			if p.parked {
				names = append(names, p.name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// spawnOn creates the process and its coroutine on shard s, first resumed
// by the dispatch of its wakeup at time t.
func (e *Engine) spawnOn(s *shard, t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, sh: s, name: name}
	p.w.p = p
	s.procs[p] = struct{}{}
	s.statSpawned++
	p.resume, _ = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		s.noteProc("start", p)
		body(p)
		s.noteProc("exit", p)
		delete(s.procs, p)
	})
	s.wakeAt(t, &p.w)
	return p
}

// Go spawns a new process that begins executing body at the current time,
// on the partition ambient calls act on (p.Go spawns on p's own). The body
// runs as a coroutine: it executes only while its partition's dispatcher
// has resumed it, and gives control back whenever it parks.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	s := e.cur()
	return e.spawnOn(s, s.now, name, body)
}

// GoAt is Go with a deferred start time.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnOn(e.cur(), t, name, body)
}

// Proc is a simulated process. All methods must be called from the process's
// own body function; calling them from outside the simulation is a
// programming error.
type Proc struct {
	eng    *Engine
	sh     *shard
	name   string
	w      waiter // reusable wakeup token; armed per park, never reallocated
	parked bool

	// resume runs the coroutine until it parks, returning the process it
	// yields (nil when the shard went idle); live is false once the body
	// has returned. yield is the body's side of the same handoff.
	resume func() (next *Proc, live bool)
	yield  func(*Proc) bool
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Part returns the partition the process lives on (0 on single-partition
// engines).
func (p *Proc) Part() PartID { return p.sh.id }

// Now returns the current virtual time of the process's partition.
func (p *Proc) Now() Time { return p.sh.now }

// At schedules fn at absolute time t (clamped to now) on p's partition:
// the context form of Engine.At, exact in every window.
func (p *Proc) At(t Time, fn func()) { p.sh.at(t, fn) }

// After schedules fn d cycles from now on p's partition.
func (p *Proc) After(d Time, fn func()) { p.sh.at(p.sh.now+d, fn) }

// SendTo is Engine.SendTo sent from p's partition, with p's clock and
// outbox.
func (p *Proc) SendTo(part PartID, d Time, fn func()) { p.eng.sendFrom(p.sh, part, d, fn) }

// Go spawns a process on p's partition, starting at p's current time.
func (p *Proc) Go(name string, body func(p *Proc)) *Proc {
	return p.eng.spawnOn(p.sh, p.sh.now, name, body)
}

// park gives control back to the engine until some event unparks p. The
// parking coroutine runs the shard loop itself: if the next wakeup is its
// own it simply returns; otherwise it yields the woken process (nil when
// the shard goes idle) to the dispatcher and is suspended until resumed.
func (p *Proc) park() {
	p.parked = true
	if next := p.sh.loop(); next != p {
		p.yield(next)
	}
}

// Sleep advances the process's local view of time by d cycles. Other events
// in the system proceed during the sleep. d <= 0 returns immediately without
// yielding.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.sh.wakeAt(p.sh.now+d, &p.w)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// events queued for this instant run first.
func (p *Proc) Yield() {
	p.sh.wakeAt(p.sh.now, &p.w)
	p.park()
}

// waiter is a one-shot wakeup token. Each Proc embeds a single waiter that
// is reused across parks: every registration (an event-heap entry or a
// queue/cond/resource wait list entry) captures the generation it was
// armed for, and consuming a wakeup bumps the generation. Exactly one of
// the paths racing to wake a parked process finds a current generation;
// the rest become stale no-ops. All paths run inside the waiter's own
// partition loop.
type waiter struct {
	p   *Proc
	gen uint64
}

// waiterRef is a wait-list registration: the waiter plus the generation it
// was armed for.
type waiterRef struct {
	w   *waiter
	gen uint64
}

// ref captures p's waiter at its current generation for a wait list.
func (p *Proc) ref() waiterRef { return waiterRef{w: &p.w, gen: p.w.gen} }

// stale reports whether the registration has already been consumed.
func (r waiterRef) stale() bool { return r.w.gen != r.gen }

// consume claims the registration (making every sibling registration
// stale) and schedules the resumption of the waiting process at the
// current time, on the process's own partition. Callers must check
// stale() first. Queues, conds, and resources are partition-local (see
// partition.go): during a run the waiter's shard must be the one whose
// window is executing the wake, and a wake from another partition panics.
func (r waiterRef) consume(e *Engine) {
	s := r.w.p.sh
	if e.multi && e.inRun && s != e.inline {
		panic(fmt.Sprintf("sim: partition %d wakes %s parked on partition %d; cross-partition wakes must go through SendTo",
			e.inline.id, r.w.p.name, s.id))
	}
	r.w.gen++
	s.wakeAt(s.now, r.w)
}
