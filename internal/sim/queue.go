package sim

// Queue is an unbounded FIFO mailbox connecting processes. Send never
// blocks; Recv parks the caller until an item is available. Items are
// delivered in send order and wakeups are deterministic.
//
// Queues (like Cond and Resource) are partition-local: every process that
// sends to or receives from one must live on the same partition, and
// callbacks that Send must run on it (cross-partition traffic goes through
// Engine.SendTo, whose callback executes on the target partition). On the
// default single-partition engine this is vacuously true.
type Queue[T any] struct {
	eng     *Engine
	name    string
	items   fifo[T]
	waiters fifo[waiterRef]
}

// NewQueue creates an empty queue attached to eng.
func NewQueue[T any](eng *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: eng, name: name}
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Send enqueues v and wakes the oldest parked receiver, if any. Send may be
// called from a process or from a plain engine callback.
func (q *Queue[T]) Send(v T) {
	q.items.push(v)
	wakeOldest(q.eng, &q.waiters)
}

// SendAfter enqueues v after a delay of d cycles, modelling propagation
// latency (e.g. an IPI crossing the interconnect).
func (q *Queue[T]) SendAfter(d Time, v T) {
	q.eng.After(d, func() { q.Send(v) })
}

// Recv parks p until an item is available, then dequeues and returns it.
func (q *Queue[T]) Recv(p *Proc) T {
	for {
		if q.items.len() > 0 {
			return q.items.pop()
		}
		q.waiters.push(p.ref())
		p.park()
	}
}

// TryRecv dequeues an item if one is available without parking.
func (q *Queue[T]) TryRecv() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// RecvTimeout is Recv with a deadline d cycles in the future. The second
// result is false if the deadline elapsed with no item available.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	deadline := p.sh.now + d
	for {
		if q.items.len() > 0 {
			return q.items.pop(), true
		}
		if p.sh.now >= deadline {
			return zero, false
		}
		// Two registrations race for one generation: the wait-list entry
		// and the deadline wakeup. Whichever fires first consumes the
		// generation; the other goes stale.
		q.waiters.push(p.ref())
		p.sh.wakeAt(deadline, &p.w)
		p.park()
	}
}

// Cond is a broadcast condition: processes park on Wait and are all released
// by the next Broadcast. There is no predicate; callers re-check their own
// condition after waking.
type Cond struct {
	eng     *Engine
	waiters []waiterRef
}

// NewCond creates a condition attached to eng.
func NewCond(eng *Engine) *Cond { return &Cond{eng: eng} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p.ref())
	p.park()
}

// Broadcast wakes every currently parked waiter (in wait order).
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, ref := range ws {
		if ref.stale() {
			continue
		}
		ref.consume(c.eng)
	}
}

// Resource is a FIFO mutual-exclusion resource (for example, a physical CPU
// shared by several simulated contexts). Acquire parks until the resource is
// free; Release hands it to the next waiter.
type Resource struct {
	eng     *Engine
	name    string
	busy    bool
	holder  *Proc
	waiters fifo[waiterRef]
}

// NewResource creates a free resource attached to eng.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// Holder returns the process currently holding the resource, or nil.
func (r *Resource) Holder() *Proc { return r.holder }

// Acquire parks p until the resource is free, then claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.busy {
		r.waiters.push(p.ref())
		p.park()
	}
	r.busy = true
	r.holder = p
}

// Release frees the resource and wakes the oldest waiter. Panics if the
// caller does not hold it.
func (r *Resource) Release(p *Proc) {
	if !r.busy || r.holder != p {
		panic("sim: Release by non-holder on resource " + r.name)
	}
	r.busy = false
	r.holder = nil
	wakeOldest(r.eng, &r.waiters)
}

// Exec acquires the resource, sleeps for d cycles of exclusive use, and
// releases it. This is the common "occupy the CPU for d cycles" idiom.
func (r *Resource) Exec(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// fifo is the engine's FIFO for queued items and wait lists. Pops advance
// head instead of reslicing, so the backing array keeps its capacity: a
// list that drains rewinds to the start, and a full one at least half
// popped compacts in place instead of growing. A steady producer/consumer
// pair therefore allocates nothing. Popped slots are cleared so the
// array retains no stale references.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the oldest element; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// wakeOldest consumes the oldest live registration, skipping stale ones
// (a waiter already woken another way, such as a RecvTimeout deadline).
func wakeOldest(e *Engine, ws *fifo[waiterRef]) {
	for ws.len() > 0 {
		if ref := ws.pop(); !ref.stale() {
			ref.consume(e)
			return
		}
	}
}
