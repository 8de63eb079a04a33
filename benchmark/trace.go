package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark's own code around a
// call into a layer. Spans of one operation share OpID; Parent is the
// ID of the span that caused this one, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced operations pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, opID int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: now, Parent: parent, OpID: opID})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (t *tracer) add(name string, parent, opID int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, OpID: opID})
	t.mu.Unlock()
}

// durations returns the length of every span called name, in ns.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover; overlapping children are counted once.
func selfTime(spans []span, id int) int64 {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return (p.End - p.Start) - covered
}

// write stores the spans, with each span's self time, as one JSON file.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type outSpan struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{span: s, SelfNS: selfTime(t.spans, i)}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"header": header, "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
