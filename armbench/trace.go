package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLayers are the layers the traced run attributes self time to, one
// per kind of call the benchmark wraps: "bench" is the benchmark's own
// time inside a root span that no child covers.
var spanLayers = []string{"bench", "sim", "model", "exp", "obs", "render", "serve", "cluster", "runlog"}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one pass or request share a group.
type span struct {
	name, layer string
	id, parent  int
	group       int
	start, end  time.Duration
}

// tracer records spans in memory on the benchmark's one driving
// goroutine. A nil *tracer records nothing, so untraced runs call the
// same code at the cost of a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans still open, innermost last
	group int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newGroup starts a new pass or request: spans begun from now on share a
// fresh group ID.
func (t *tracer) newGroup() {
	if t != nil {
		t.group++
	}
}

// begin opens a span nested in the innermost open one and returns a
// handle for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].id
	}
	t.spans = append(t.spans, span{
		name: name, layer: layer, id: len(t.spans) + 1, parent: parent,
		group: t.group, start: time.Since(t.t0),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, which must be the innermost open
// one.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].end = time.Since(t.t0)
	if n := len(t.open); n > 0 && t.open[n-1] == h {
		t.open = t.open[:n-1]
	}
}

// wrap runs fn inside a span.
func (t *tracer) wrap(layer, name string, fn func()) {
	h := t.begin(layer, name)
	fn()
	t.end(h)
}

// selfTimes sums each layer's self time in milliseconds: a span's
// duration minus the part of it its child spans cover. Children of one
// span never overlap (one goroutine records them), so the covered part is
// the sum of their durations.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64, len(spanLayers))
	for _, l := range spanLayers {
		out[l] = 0
	}
	for _, s := range t.spans {
		out[s.layer] += float64(s.end-s.start-child[s.id]) / float64(time.Millisecond)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON: complete ("X")
// events on one track, with the span's ID, parent and group in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range t.spans {
		b, err := json.Marshal(event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent, "group": s.group},
		})
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
