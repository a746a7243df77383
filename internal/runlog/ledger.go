package runlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Ledger is the append-only run record: every finished request becomes
// one JSONL line in a size-capped file plus one slot in a bounded
// in-memory ring the serve endpoints query. The file is the durable,
// tail-able artifact (cmd/armvirt-runs); the ring is the hot index.
//
// The file is append-only within a generation. When an append would push
// it past the byte cap, the current file is rotated to <path>.1
// (replacing any previous rotation) and a fresh generation starts — so
// at most 2x the cap lives on disk and no entry is ever rewritten in
// place. A Ledger opened with an empty path keeps only the ring.
type Ledger struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64
	max  int64
	keep int

	epoch string // process-start token embedded in run IDs
	seq   uint64

	ring []*Entry          // oldest first, len <= keep
	byID map[string]*Entry // entries still in the ring

	appended  int64
	dropped   int64 // ring evictions
	rotations int64
	writeErrs int64
}

// LedgerStats is a point-in-time snapshot of ledger counters.
type LedgerStats struct {
	// Entries and MaxEntries describe the in-memory ring.
	Entries, MaxEntries int
	// Bytes and MaxBytes describe the current file generation (0 for a
	// memory-only ledger).
	Bytes, MaxBytes int64
	// Appended counts entries ever appended; Dropped counts ring
	// evictions; Rotations counts file generation rollovers; WriteErrs
	// counts failed durability operations — appends, and the close/
	// rename/reopen steps of rotation (entries stay queryable in the
	// ring either way).
	Appended, Dropped, Rotations, WriteErrs int64
}

// Defaults for Open's zero values.
const (
	// DefaultMaxBytes caps one ledger file generation (8 MiB).
	DefaultMaxBytes = 8 << 20
	// DefaultKeep bounds the in-memory ring.
	DefaultKeep = 512
)

// Open creates a ledger. path "" keeps entries in memory only; otherwise
// the JSONL file is opened for append (created if absent). maxBytes <= 0
// and keep <= 0 take the documented defaults.
func Open(path string, maxBytes int64, keep int) (*Ledger, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	l := &Ledger{
		path:  path,
		max:   maxBytes,
		keep:  keep,
		epoch: time.Now().UTC().Format("20060102t150405"),
		byID:  make(map[string]*Entry),
	}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("runlog: open ledger: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close() // nothing written yet; the stat error is the one to report
			return nil, fmt.Errorf("runlog: stat ledger: %w", err)
		}
		l.f, l.size = f, st.Size()
	}
	return l, nil
}

// Begin starts a trace for one request, assigning it a process-unique
// run ID. Finish the trace and Append the entry when the request ends.
func (l *Ledger) Begin(endpoint string) *Trace {
	if l == nil {
		return nil
	}
	t := NewTrace(endpoint)
	l.mu.Lock()
	l.seq++
	t.entry.ID = fmt.Sprintf("%s-%06d", l.epoch, l.seq)
	l.mu.Unlock()
	return t
}

// Append records a finished entry: one JSONL line (rotating the file if
// the cap would be exceeded) and one ring slot. A file write error is
// counted and the entry is still retained in memory.
func (l *Ledger) Append(e *Entry) {
	if l == nil || e == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		return // Entry is marshal-safe by construction; defensive only.
	}
	line = append(line, '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if l.size+int64(len(line)) > l.max && l.size > 0 {
			l.rotateLocked()
		}
		if n, err := l.f.Write(line); err != nil {
			l.writeErrs++
		} else {
			l.size += int64(n)
		}
	}
	l.ring = append(l.ring, e)
	l.byID[e.ID] = e
	for len(l.ring) > l.keep {
		delete(l.byID, l.ring[0].ID)
		l.ring[0] = nil
		l.ring = l.ring[1:]
		l.dropped++
	}
	l.appended++
}

// rotateLocked rolls the current file generation to <path>.1 and starts
// a fresh one. Each step is best-effort — a fresh file follows either
// way — but a failed close (buffered lines may not have reached disk) or
// a failed rename (the old generation is overwritten, not preserved) is
// folded into writeErrs so rotation trouble shows up in LedgerStats.
// Called with l.mu held.
func (l *Ledger) rotateLocked() {
	if err := l.f.Close(); err != nil {
		l.writeErrs++
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		l.writeErrs++
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.f, l.size = nil, 0
		l.writeErrs++
		return
	}
	l.f, l.size = f, 0
	l.rotations++
}

// Get returns the ring-resident entry with the given run ID, or nil.
func (l *Ledger) Get(id string) *Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byID[id]
}

// Query filters ledger entries. Zero fields match everything.
type Query struct {
	// Endpoint matches Entry.Endpoint exactly.
	Endpoint string
	// Target matches Entry.Target exactly (an experiment ID or
	// "platform/op").
	Target string
	// Status matches Entry.Status exactly when non-zero.
	Status int
	// Outcome matches Entry.Outcome exactly ("hit", "miss", "shared").
	Outcome string
	// Since excludes entries that started before it, when non-zero.
	Since time.Time
	// Limit bounds the result count when positive (most recent kept).
	Limit int
}

// match reports whether e satisfies q.
func (q Query) match(e *Entry) bool {
	if q.Endpoint != "" && e.Endpoint != q.Endpoint {
		return false
	}
	if q.Target != "" && e.Target != q.Target {
		return false
	}
	if q.Status != 0 && e.Status != q.Status {
		return false
	}
	if q.Outcome != "" && e.Outcome != q.Outcome {
		return false
	}
	if !q.Since.IsZero() && e.Start.Before(q.Since) {
		return false
	}
	return true
}

// Recent returns ring entries matching q, most recent first.
func (l *Ledger) Recent(q Query) []*Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Entry
	for i := len(l.ring) - 1; i >= 0; i-- {
		if e := l.ring[i]; q.match(e) {
			out = append(out, e)
			if q.Limit > 0 && len(out) == q.Limit {
				break
			}
		}
	}
	return out
}

// Stats returns a snapshot of the ledger counters.
func (l *Ledger) Stats() LedgerStats {
	if l == nil {
		return LedgerStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerStats{
		Entries: len(l.ring), MaxEntries: l.keep,
		Appended: l.appended, Dropped: l.dropped,
		Rotations: l.rotations, WriteErrs: l.writeErrs,
	}
	if l.f != nil || l.path != "" {
		s.Bytes, s.MaxBytes = l.size, l.max
	}
	return s
}

// Close flushes and closes the ledger file, if any.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadAll parses ledger JSONL from r in file order, skipping lines that
// fail to parse (a torn final line after a crash must not poison the
// query).
func ReadAll(r io.Reader) []*Entry {
	var out []*Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var e Entry
		if err := json.Unmarshal(line, &e); err == nil && e.ID != "" {
			out = append(out, &e)
		}
	}
	return out
}

// ReadFile reads one ledger file (see ReadAll). A rotated sibling
// <path>.1, when present, is read first so results span both
// generations oldest-to-newest.
func ReadFile(path string) ([]*Entry, error) {
	var out []*Entry
	if prev, err := os.Open(path + ".1"); err == nil {
		out = append(out, ReadAll(prev)...)
		prev.Close()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: read ledger: %w", err)
	}
	defer f.Close()
	return append(out, ReadAll(f)...), nil
}

// Filter returns the entries matching q, preserving order, applying
// q.Limit from the end (most recent).
func Filter(entries []*Entry, q Query) []*Entry {
	var out []*Entry
	for _, e := range entries {
		if q.match(e) {
			out = append(out, e)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// RenderEntries writes the fixed-width text listing of entries shared by
// GET /v1/runs and armvirt-runs: one line per run with identity, status,
// outcome, wall total, the headline stage splits, and simulated cycles.
func RenderEntries(w io.Writer, entries []*Entry) {
	fmt.Fprintf(w, "%-24s %-12s %-12s %-22s %4s %-7s %11s %11s %12s\n",
		"RUN", "TIME", "ENDPOINT", "TARGET", "CODE", "OUTCOME", "TOTAL", "ENGINE", "SIM CYCLES")
	for _, e := range entries {
		var engineUS, cycles int64
		e.EachSpan(func(s *Span) {
			if s.Name == "engine" {
				engineUS += s.DurUS
			}
		})
		if e.Engine != nil {
			cycles = e.Engine.Cycles
		}
		target := e.Target
		if e.Format != "" {
			target += "?" + e.Format
		}
		fmt.Fprintf(w, "%-24s %-12s %-12s %-22s %4d %-7s %10dus %10dus %12d\n",
			e.ID, e.Start.Format("15:04:05.000"), e.Endpoint, target,
			e.Status, orDash(e.Outcome), e.TotalUS, engineUS, cycles)
	}
}

// EachSpan visits every span of the entry in depth-first pre-order.
func (e *Entry) EachSpan(visit func(*Span)) {
	for _, s := range e.Spans {
		s.Walk(visit)
	}
}

// StageTotals sums span durations by span name, returning the names in
// first-appearance order alongside the totals — the per-stage rollup the
// serve metrics feed from.
func (e *Entry) StageTotals() (names []string, totals map[string]int64) {
	totals = make(map[string]int64)
	e.EachSpan(func(s *Span) {
		if _, ok := totals[s.Name]; !ok {
			names = append(names, s.Name)
		}
		totals[s.Name] += s.DurUS
	})
	return names, totals
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// String renders a compact one-line summary of the entry.
func (e *Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", e.ID, e.Endpoint)
	if e.Target != "" {
		fmt.Fprintf(&b, " %s", e.Target)
	}
	fmt.Fprintf(&b, " status=%d total=%dus", e.Status, e.TotalUS)
	if e.Outcome != "" {
		fmt.Fprintf(&b, " outcome=%s", e.Outcome)
	}
	if e.Engine != nil {
		fmt.Fprintf(&b, " cycles=%d", e.Engine.Cycles)
	}
	return b.String()
}
