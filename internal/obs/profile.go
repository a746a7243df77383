// Cycle-attribution profiler: a hierarchical span tree that records where
// every simulated cycle charged through the cost model went.
//
// The paper's core explanatory move is cost *decomposition* — breaking the
// 6,500-cycle KVM ARM hypercall into EL2 entry, register banking, GIC
// save/restore and world-switch bookkeeping (Table III). The event bus
// records transitions; the profiler records what the cycles inside a
// transition paid for. Instrumented layers run their work inside named
// phases with InSpan, which closes each phase when its closure returns,
// and every cycle charged while a phase is open (hyp.VCPU.Charge, hw IPI
// dispatch, the scheduler's exclusive execution) is attributed to a leaf
// under the current phase stack, e.g.
// hypercall/exit-to-host/gic-save/vgic-regs-save.
//
// Span stacks are kept per simulated process (fiber): cycles are spent by
// whichever fiber calls Proc.Sleep, so the fiber — not the physical CPU —
// is the natural owner of the open-phase stack. All fibers share one
// Profile tree per Recorder; because the engine runs fibers one at a time,
// tree construction order is deterministic and exports are byte-identical
// across runs.
package obs

import (
	"fmt"
	"strings"

	"armvirt/internal/sim"
)

// pnode is one node of the span tree: a phase (interior) or a charge leaf.
// Children are kept in first-insertion order, which the single-threaded
// engine makes deterministic.
type pnode struct {
	// name is the slugged frame label; label is the display name of the
	// charges made here ("GP Regs: save" for gp-regs-save), empty on
	// nodes that were only ever opened as phases and so charge nothing.
	name, label string
	self        int64
	children    []*pnode
	index       map[string]*pnode
}

func (n *pnode) child(name string) *pnode {
	if c, ok := n.index[name]; ok {
		return c
	}
	c := &pnode{name: name, index: map[string]*pnode{}}
	n.children = append(n.children, c)
	n.index[name] = c
	return c
}

// total returns self plus all descendant cycles.
func (n *pnode) total() int64 {
	t := n.self
	for _, c := range n.children {
		t += c.total()
	}
	return t
}

// Profile is the span tree of one recorded run. Recorder.Profile returns
// a copy, so a profile stays stable while its recorder keeps recording.
type Profile struct {
	root  *pnode
	slugs map[string]string
}

// NewProfile returns an empty profile. Recorders create one implicitly;
// the constructor exists for tests and standalone aggregation.
func NewProfile() *Profile {
	return &Profile{root: &pnode{index: map[string]*pnode{}}, slugs: map[string]string{}}
}

// Slug converts a display name ("GP Regs: save") into the stable frame
// label used in stacks ("gp-regs-save"): lower case, runs of
// non-alphanumerics collapsed to single dashes.
func Slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
			dash = false
		default:
			if b.Len() > 0 && !dash {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// slug is Slug with a per-profile memo, so hot charge paths do not rebuild
// the same label.
func (pf *Profile) slug(name string) string {
	if s, ok := pf.slugs[name]; ok {
		return s
	}
	s := Slug(name)
	pf.slugs[name] = s
	return s
}

// Total returns the sum of all attributed cycles.
func (pf *Profile) Total() int64 {
	if pf == nil {
		return 0
	}
	return pf.root.total()
}

// reset zeroes every node's cycles while keeping the tree structure (and
// therefore any open span cursors pointing into it) intact. Nodes whose
// subtree total is zero are skipped by the exports, so a warm-up phase
// leaves no trace in the output.
func (pf *Profile) reset() {
	var zero func(n *pnode)
	zero = func(n *pnode) {
		n.self = 0
		for _, c := range n.children {
			zero(c)
		}
	}
	zero(pf.root)
}

// ProfileEntry is one leaf of the span tree: the phase stack from the root
// and the cycles charged directly at that position.
type ProfileEntry struct {
	// Stack is the phase path, outermost first (the folded-stack frame
	// order).
	Stack []string
	// Cycles is the simulated-cycle count attributed at this position.
	Cycles int64
}

// Entries returns the profile's leaf entries — every (stack, cycles) pair
// with a non-zero charge — in deterministic first-insertion DFS order.
func (pf *Profile) Entries() []ProfileEntry {
	var out []ProfileEntry
	pf.walkCharged(func(stack []string, n *pnode) {
		out = append(out, ProfileEntry{Stack: append([]string(nil), stack...), Cycles: n.self})
	})
	return out
}

// walkCharged calls fn, in first-insertion DFS order, for every node with
// a non-zero charge and the phase stack leading to it. fn must not keep
// stack.
func (pf *Profile) walkCharged(fn func(stack []string, n *pnode)) {
	if pf == nil {
		return
	}
	var walk func(n *pnode, stack []string)
	walk = func(n *pnode, stack []string) {
		if n.self > 0 {
			fn(stack, n)
		}
		for _, c := range n.children {
			walk(c, append(stack, c.name))
		}
	}
	walk(pf.root, nil)
}

// Charge is one row of the profile's flat view: a charge name and the
// cycles charged under it anywhere in the span tree.
type Charge struct {
	// Name is the display name passed to ChargeCycles ("GP Regs: save").
	Name   string
	Cycles int64
}

// Charges returns the flat view of the profile: its charged nodes summed
// by frame label, in first-seen DFS order, under their display names. It
// is the paper's Table III breakdown for a profiled operation; the rows
// sum to Total.
func (pf *Profile) Charges() []Charge {
	var out []Charge
	idx := map[string]int{}
	pf.walkCharged(func(_ []string, n *pnode) {
		if i, ok := idx[n.name]; ok {
			out[i].Cycles += n.self
			return
		}
		idx[n.name] = len(out)
		out = append(out, Charge{Name: n.label, Cycles: n.self})
	})
	return out
}

// TreeRow is one row of the rendered span tree: a phase or leaf with its
// depth, its own cycles and its subtree total.
type TreeRow struct {
	Depth       int
	Name        string
	Self, Total int64
}

// Tree returns the profile as indented rows in deterministic DFS order,
// skipping subtrees that charged nothing.
func (pf *Profile) Tree() []TreeRow {
	if pf == nil {
		return nil
	}
	var out []TreeRow
	var walk func(n *pnode, depth int)
	walk = func(n *pnode, depth int) {
		for _, c := range n.children {
			t := c.total()
			if t == 0 {
				continue
			}
			out = append(out, TreeRow{Depth: depth, Name: c.name, Self: c.self, Total: t})
			walk(c, depth+1)
		}
	}
	walk(pf.root, 0)
	return out
}

// Folded renders entries in Brendan Gregg's collapsed-stack format — one
// "frame;frame;leaf count" line per entry — ready for flamegraph.pl or
// speedscope. Entries keep their deterministic order; identical runs
// produce byte-identical output.
func Folded(entries []ProfileEntry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %d\n", strings.Join(e.Stack, ";"), e.Cycles)
	}
	return b.String()
}

// Folded is the profile's own entries in collapsed-stack form.
func (pf *Profile) Folded() string { return Folded(pf.Entries()) }

// --- Recorder span API -------------------------------------------------------

// profState is the recorder's profiling half: a span tree plus one open
// span stack per simulated process. It is created lazily on first use so
// recorders used purely as event buses pay nothing.
type profState struct {
	prof  *Profile
	spans map[*sim.Proc][]*pnode
}

func (r *Recorder) prof() *profState {
	if r.profiling == nil {
		r.profiling = &profState{prof: NewProfile(), spans: map[*sim.Proc][]*pnode{}}
	}
	return r.profiling
}

// cursor returns the node new charges attach to for process p: the top of
// its open span stack, or the tree root when no span is open.
func (ps *profState) cursor(p *sim.Proc) *pnode {
	if st := ps.spans[p]; len(st) > 0 {
		return st[len(st)-1]
	}
	return ps.prof.root
}

// InSpan runs fn inside a named profiling phase for process p: cycles p
// charges while fn runs are attributed under it, and the phase closes when
// fn returns or panics, so every span is balanced by construction. Phases
// nest. The name is slugged (Slug) to form the frame label. On a nil
// recorder fn just runs, so instrumentation stays free when observability
// is off.
func InSpan(r *Recorder, p *sim.Proc, name string, fn func()) {
	r.span(p, name)
	defer r.endSpan(p)
	fn()
}

func (r *Recorder) span(p *sim.Proc, name string) {
	if r == nil {
		return
	}
	ps := r.prof()
	ps.spans[p] = append(ps.spans[p], ps.cursor(p).child(ps.prof.slug(name)))
}

// endSpan closes process p's innermost open phase; with none open it
// does nothing.
func (r *Recorder) endSpan(p *sim.Proc) {
	if r == nil || r.profiling == nil {
		return
	}
	ps := r.profiling
	if st := ps.spans[p]; len(st) > 0 {
		ps.spans[p] = st[:len(st)-1]
	}
}

// ChargeCycles attributes c simulated cycles to the named leaf under
// process p's current phase stack. This is the single hook the cost-model
// choke points (hyp.VCPU.Charge, hw.Machine.SendIPI, sched.Dispatcher)
// call; c <= 0 and nil recorders record nothing.
func (r *Recorder) ChargeCycles(p *sim.Proc, name string, c int64) {
	if r == nil || c <= 0 {
		return
	}
	ps := r.prof()
	n := ps.cursor(p).child(ps.prof.slug(name))
	n.label = name
	n.self += c
}

// Profile returns a copy of the recorder's span tree (nil on a nil
// recorder) holding its charged nodes. Later charges do not change a
// returned profile, so a measurement harness can take its window's
// profile and leave the recorder attached.
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	cp := NewProfile()
	if r.profiling == nil {
		return cp
	}
	r.profiling.prof.walkCharged(func(stack []string, n *pnode) {
		m := cp.root
		for _, frame := range stack {
			m = m.child(frame)
		}
		m.label = n.label
		m.self += n.self
	})
	return cp
}

// ResetProfile zeroes all attributed cycles while keeping tree structure
// and open spans intact. Measurement harnesses call it after warm-up so
// exports cover exactly the measured window.
func (r *Recorder) ResetProfile() {
	if r == nil {
		return
	}
	if r.profiling != nil {
		r.profiling.prof.reset()
	}
}
