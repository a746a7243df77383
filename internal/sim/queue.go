package sim

// Queue is an unbounded FIFO mailbox connecting processes. Send never
// blocks; Recv parks the caller until an item is available. Items are
// delivered in send order and wakeups are deterministic.
//
// Queues (like Resource) are partition-local: every process that sends to
// or receives from one must live on the same partition, and callbacks
// that Send must run on it (cross-partition traffic goes through
// Engine.SendTo, whose callback executes on the target partition). On the
// default single-partition engine this is vacuously true.
type Queue[T any] struct {
	eng     *Engine
	name    string
	items   fifo[T]
	waiters fifo[*Proc]
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
		q.waiters.push(p)
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

// Resource is a FIFO mutual-exclusion resource (for example, a physical CPU
// shared by several simulated contexts). Acquire parks until the resource is
// free; Release hands it to the next waiter.
type Resource struct {
	eng     *Engine
	name    string
	holder  *Proc // nil while the resource is free
	waiters fifo[*Proc]
}

// NewResource creates a free resource attached to eng.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire parks p until the resource is free, then claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.holder != nil {
		r.waiters.push(p)
		p.park()
	}
	r.holder = p
}

// Release frees the resource and wakes the oldest waiter. Panics if the
// caller does not hold it.
func (r *Resource) Release(p *Proc) {
	if r.holder != p {
		panic("sim: Release by non-holder on resource " + r.name)
	}
	r.holder = nil
	wakeOldest(r.eng, &r.waiters)
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

// wakeOldest wakes the process that has waited longest on ws, if any.
func wakeOldest(e *Engine, ws *fifo[*Proc]) {
	if ws.len() > 0 {
		e.wake(ws.pop())
	}
}
