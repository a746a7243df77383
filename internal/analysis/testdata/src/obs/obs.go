// Package obs is the analysistest stand-in for the real recorder: a named
// type Recorder in a package called obs, which is exactly what the
// nilrecorder analyzer keys on. It doubles as the
// definition-site fixture for nilrecorder: exported pointer-receiver
// methods must open with the nil-receiver guard.
package obs

// Recorder mimics the real event bus: a nil *Recorder records nothing.
type Recorder struct {
	n int
}

// Emit has the blessed nil guard.
func (r *Recorder) Emit(detail string, arg int64) {
	if r == nil {
		return
	}
	r.n++
}

// Attach takes an arbitrary payload (to exercise composite-literal
// arguments at call sites).
func (r *Recorder) Attach(v any) {
	if r == nil {
		return
	}
	r.n++
}

// Pop undoes the last Emit; the guard may carry extra ||-joined
// conditions.
func (r *Recorder) Pop() {
	if r == nil || r.n == 0 {
		return
	}
	r.n--
}

// Count is guarded and returns the zero value on nil.
func (r *Recorder) Count() int {
	if r == nil {
		return 0
	}
	return r.n
}

// BadTotal dereferences a possibly-nil receiver; the expectation anchors
// on the declaration line.
func (r *Recorder) BadTotal() int { // want `exported recorder method BadTotal must begin with the nil-receiver guard`
	return r.n
}

// reset is unexported: internal helpers run behind guarded entry points.
func (r *Recorder) reset() { r.n = 0 }

// Seq keeps the unexported helper reachable so the fixture compiles
// without unused warnings.
func (r *Recorder) Seq() int {
	if r == nil {
		return 0
	}
	r.reset()
	return r.n
}

// Healthy has a value receiver: it can never be called on nil.
func (r Recorder) Healthy() bool { return true }

// Multi embeds a Recorder, so its own exported pointer-receiver methods
// inherit the nil-guard obligation.
type Multi struct {
	*Recorder
	extra int
}

// Flush is missing its guard.
func (m *Multi) Flush() { // want `exported recorder method Flush must begin with the nil-receiver guard`
	m.extra = 0
}

// Drop is guarded correctly.
func (m *Multi) Drop() {
	if m == nil {
		return
	}
	m.extra = 0
}
