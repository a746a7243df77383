// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine models virtual time in CPU cycles. Simulated activities run as
// processes (fibers): ordinary Go functions executing on goroutines that are
// scheduled cooperatively by the engine. Because processes within a
// partition run one at a time and all ties in the event queue are broken by
// a monotonic sequence number, a simulation produces identical results on
// every run regardless of host scheduling.
//
// An engine is born with a single partition and behaves exactly like a
// classic sequential event loop. AddPartition splits the simulation into
// additional logical processes for conservative parallel execution
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
// act on the partition whose window the Run caller is dispatching inline
// (one window worker, or a window with one active partition). Inside a
// window dispatched across several workers no single partition is
// current, so an ambient call panics and names the context form to use.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
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
// heap, continuation-passing dispatch state, and work counters. A
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
	running *Proc         // proc whose goroutine owns this shard's loop (nil = window owner)
	done    chan struct{} // signals the window owner when the shard's loop goes idle
	limit   Time          // inclusive dispatch bound for the current window / RunUntil
	hasLim  bool
	stopped bool
	fault   any // panic that ended a fiber, re-raised by the loop's owner
	procs   map[*Proc]struct{}

	// Cross-partition outbox: messages produced by this shard during a
	// quantum window, drained by the coordinator at the barrier. sendSeq
	// is the shard-local send order, part of the deterministic merge key.
	outbox  []xmsg
	sendSeq uint64

	// Work counters behind Stats(). They are driven exclusively by the
	// deterministic event sequence (pushes, pops, handoffs, spawns), so
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
// order (at, from, seq) — deterministic regardless of how many host
// threads executed the window.
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
// Within a partition the engine loop migrates between goroutines:
// whichever goroutine parks last continues dispatching events inline
// (continuation passing). A process that wakes itself therefore costs no
// goroutine switch at all, and waking another process costs one handoff
// instead of the two a dedicated engine goroutine would need. Logical
// execution order is unaffected: exactly one goroutine runs a given
// shard's loop at any instant.
//
// With more than one partition (AddPartition), Run executes the
// conservative parallel algorithm in partition.go: lookahead-bounded
// quantum windows in which partitions dispatch concurrently, separated by
// barriers that exchange cross-partition messages in a deterministic
// order. The algorithm is identical at every worker count, so output is
// byte-identical however many host threads dispatch the windows.
//
// The ambient methods (At, After, SendTo, Go, GoAt, Now, Stop) act on
// partition 0 of a single-partition engine or outside a run, and on the
// partition whose window the Run caller dispatches inline during one;
// inside a window dispatched in parallel they panic, and code there uses
// the Proc forms instead (see the package comment).
type Engine struct {
	root  shard
	parts []*shard // parts[0] == &root; more after AddPartition
	multi bool     // len(parts) > 1

	// lookahead is the minimum cross-partition latency: every SendTo
	// delay must be >= lookahead, which is what makes a window of that
	// width safe to dispatch without hearing from other partitions.
	lookahead Time
	// workers bounds the host goroutines dispatching windows (default:
	// runtime.GOMAXPROCS at NewEngine). Only meaningful on
	// multi-partition engines.
	workers int
	// inline is the shard whose window the Run caller is dispatching on
	// its own goroutine (multi mode only); nil while a window runs on
	// the worker pool. Ambient calls during a run resolve to it.
	inline *shard
	// stopAll requests a full stop at the next quantum barrier.
	stopAll atomic.Bool
	// inRun is true while Run/RunUntil is executing (multi mode uses it
	// to distinguish setup-time SendTo/GoOn from run-time calls).
	inRun bool

	procTap func(t Time, part PartID, what, name string)

	// tele is the telemetry half of the run scope NewEngine captured.
	tele any
}

// NewEngine returns an engine with the clock at zero, an empty queue, and
// a single partition. It captures the calling goroutine's run scope (see
// CollectStats): the engine registers with the scope's stats collector,
// if any, and keeps its telemetry half for Telemetry. A multi-partition
// run dispatches its windows on up to GOMAXPROCS host goroutines
// (SetWorkers overrides); the count never affects results.
func NewEngine() *Engine {
	s := scopeOf(goid())
	e := &Engine{workers: runtime.GOMAXPROCS(0), tele: s.tele}
	e.root.eng = e
	e.root.id = 0
	e.root.name = "shared"
	e.root.done = make(chan struct{}, 1)
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

// errAmbient is the panic an ambient call raises inside a window
// dispatched in parallel, where no single partition is current.
const errAmbient = "sim: ambient Engine call inside a window dispatched in parallel; " +
	"use the Proc form (p.At, p.After, p.SendTo, p.Go) or PartNow for the partition's clock"

// cur returns the shard ambient calls act on: the root shard on a
// single-partition engine or outside a run, and during a run the shard
// whose window the Run caller is dispatching inline. It panics inside a
// window dispatched in parallel.
func (e *Engine) cur() *shard {
	if !e.multi || !e.inRun {
		return &e.root
	}
	if s := e.inline; s != nil {
		return s
	}
	panic(errAmbient)
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
// clock this way without resolving the calling context, so it is exact
// inside a window dispatched in parallel.
func (e *Engine) PartNow(part PartID) Time { return e.parts[part].now }

// SetProcTap installs the process-lifecycle tap: fn receives the
// partition the process lives on (0 on a single-partition engine), the
// event verb ("start", "exit") and the process name. On a multi-partition
// engine fn runs concurrently from window workers, so consumers keep
// per-partition state to stay race-free and deterministic. Pass nil to
// disable.
func (e *Engine) SetProcTap(fn func(t Time, part PartID, what, name string)) { e.procTap = fn }

// noteProc reports a process-lifecycle event to the tap.
func (s *shard) noteProc(what string, p *Proc) {
	if tap := s.eng.procTap; tap != nil {
		tap(s.now, s.id, what, p.name)
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
	if e.multi {
		e.stopAll.Store(true)
	}
}

// loop outcomes.
const (
	loopIdle    = iota // queue empty, Stop called, or deadline reached
	loopHandoff        // control transferred to another process goroutine
	loopSelf           // the calling process was itself resumed
)

// loop dispatches pending events in the calling goroutine until the shard
// goes idle or control is handed to a process goroutine. Resuming the
// process whose goroutine is already running the loop returns loopSelf
// without any channel traffic.
func (s *shard) loop() int {
	for {
		if len(s.queue) == 0 || s.stopped {
			return loopIdle
		}
		if s.hasLim && s.queue[0].at > s.limit {
			return loopIdle
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
		if p == s.running {
			return loopSelf
		}
		s.running = p
		s.statSwitches++
		p.wake <- struct{}{}
		return loopHandoff
	}
}

// Run processes events until the queue is empty or Stop is called. Parked
// processes whose wakeups are never scheduled are simply abandoned (their
// goroutines are unblocked and discarded at no cost to determinism). On a
// multi-partition engine Run executes the quantum algorithm (see
// partition.go) — same results, any worker count. A panic inside a
// process body is re-raised on the goroutine that called Run.
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
// limit (inclusive) when hasLim, and returns once the loop goes idle —
// wherever the loop migrated in between. A panic that ended one of the
// shard's fibers is re-raised here, on the loop's owner.
func (s *shard) dispatch(limit Time, hasLim bool) {
	s.hasLim, s.limit = hasLim, limit
	s.running = nil
	if s.loop() == loopHandoff {
		<-s.done
		if r := s.fault; r != nil {
			s.fault = nil
			panic(r)
		}
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

// spawnOn creates the process record and its goroutine on shard s,
// initially parked waiting for the first dispatch at time t.
func (e *Engine) spawnOn(s *shard, t Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:  e,
		sh:   s,
		name: name,
		wake: make(chan struct{}, 1),
	}
	p.w.p = p
	s.procs[p] = struct{}{}
	s.statSpawned++
	go func() {
		defer s.recoverFiber()
		<-p.wake // wait for first dispatch
		s.noteProc("start", p)
		body(p)
		s.noteProc("exit", p)
		p.dead = true
		p.parked = true
		delete(s.procs, p)
		// The exiting goroutine owns the shard loop; keep dispatching
		// here until idle or the loop migrates to another process.
		if s.loop() == loopIdle {
			s.done <- struct{}{}
		}
	}()
	s.wakeAt(t, &p.w)
	return p
}

// recoverFiber ends a fiber whose body, or an event its goroutine was
// dispatching, panicked: the shard stops, the panic is kept on it, and
// control returns to the loop's owner, which re-raises it (dispatch).
func (s *shard) recoverFiber() {
	r := recover()
	if r == nil {
		return
	}
	s.fault = r
	s.stopped = true
	s.done <- struct{}{}
}

// Go spawns a new process that begins executing body at the current time,
// on the partition ambient calls act on (p.Go spawns on p's own). The body
// runs on its own goroutine but is scheduled cooperatively: it only
// executes while the engine has handed it control.
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
	wake   chan struct{}
	w      waiter // reusable wakeup token; armed per park, never reallocated
	parked bool
	dead   bool
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
// parking goroutine continues running the shard loop itself: if the next
// wakeup is its own it simply returns, otherwise it hands the loop to the
// woken process (or signals the window owner when the shard goes idle) and
// blocks until resumed.
func (p *Proc) park() {
	p.parked = true
	switch p.sh.loop() {
	case loopSelf:
		return
	case loopIdle:
		p.sh.done <- struct{}{}
	}
	<-p.wake
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
// the rest become stale no-ops. Because all paths run inside the waiter's
// own partition loop there is no data race.
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
// stale() first. Queues, conds, and resources are partition-local by
// construction (see partition.go), so the waiter's shard is the shard
// executing the wake.
func (r waiterRef) consume(e *Engine) {
	r.w.gen++
	s := r.w.p.sh
	s.wakeAt(s.now, r.w)
}
