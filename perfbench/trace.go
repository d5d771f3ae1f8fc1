package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// harness around its own calls into the program. Spans of one
// operation share Op; Parent is 0 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; its zero value (from a nil tracer) is inert.
type active struct {
	t   *tracer
	idx int
	op  int
}

// begin opens a span of layer under parent (nil for an operation root).
func (t *tracer) begin(parent *active, layer, name string) active {
	if t == nil {
		return active{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Layer: layer, Name: name, Start: now, End: -1}
	if parent != nil && parent.t != nil {
		s.Parent = t.spans[parent.idx].ID
		s.Op = parent.op
	} else {
		t.ops++
		s.Op = t.ops
	}
	t.spans = append(t.spans, s)
	return active{t: t, idx: len(t.spans) - 1, op: s.Op}
}

// end closes the span.
func (a active) end() {
	if a.t == nil {
		return
	}
	now := time.Since(a.t.epoch)
	a.t.mu.Lock()
	a.t.spans[a.idx].End = now
	a.t.mu.Unlock()
}

// finished returns a copy of every closed span.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the finished spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.finished())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its direct children cover. Overlapping children (a
// parent waiting on two concurrent calls) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
