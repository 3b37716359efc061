package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory; writeFile dumps them
// when the run ends. A nil *tracer is the untraced mode: every method is
// a no-op, so untraced operations share the traced code path without
// reading the clock for spans.
//
// Calls made once per simulated slot (Strategy.Jams, Medium.ResolveAppend,
// Instance.Deliver+Tick) are too frequent for one span each: they are
// timed per call and summed into the enclosing span's Calls, which the
// self-time rule subtracts like child spans.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int
	spans  []span
}

// span is one timed call into a layer. Spans of one closed-loop
// operation (or one set-up repetition) share Run.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Calls  map[string]callSum `json:"calls,omitempty"`
	Counts map[string]int64   `json:"counts,omitempty"`
}

// callSum totals the per-slot calls of one kind made inside a span.
type callSum struct {
	N  int64 `json:"n"`
	NS int64 `json:"ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span. Its methods are not safe for concurrent use:
// every span is opened, filled and ended by one goroutine.
type active struct {
	t *tracer
	s span
}

// start opens a span named name under parent (0 for a root span).
func (t *tracer) start(run string, parent int, name string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &active{t: t, s: span{ID: id, Parent: parent, Run: run, Name: name, Start: t.since(time.Now())}}
}

// interval records a span whose bounds the caller measured itself (the
// queue wait between Submit and the first streamed record).
func (t *tracer) interval(run string, parent int, name string, from, to time.Time) {
	if t == nil || from.IsZero() || to.IsZero() {
		return
	}
	a := t.start(run, parent, name)
	a.s.Start, a.s.End = t.since(from), t.since(to)
	t.mu.Lock()
	t.spans = append(t.spans, a.s)
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// id returns the span's ID, 0 for the untraced no-op span.
func (a *active) id() int {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// call adds one per-slot call of kind name that took d.
func (a *active) call(name string, d time.Duration) {
	if a == nil {
		return
	}
	if a.s.Calls == nil {
		a.s.Calls = make(map[string]callSum)
	}
	c := a.s.Calls[name]
	c.N++
	c.NS += int64(d)
	a.s.Calls[name] = c
}

// count adds n to the span's counter name.
func (a *active) count(name string, n int64) {
	if a == nil {
		return
	}
	if a.s.Counts == nil {
		a.s.Counts = make(map[string]int64)
	}
	a.s.Counts[name] += n
}

// end closes the span and keeps it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = a.t.since(time.Now())
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// spanKey carries the enclosing span ID through calls that only pass a
// context (RunRange → Sweep → Engine.Run), so points executed for a
// lease nest under that lease's jobs.range span.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) (int, bool) {
	id, ok := ctx.Value(spanKey{}).(int)
	return id, ok
}

// runTotals is one run's span data folded by name: the summed duration
// and self time of its spans, and the summed per-slot calls and
// counters recorded on them.
type runTotals struct {
	dur, self map[string]float64 // seconds
	calls     map[string]callSum
	counts    map[string]int64
}

// totalsByRun folds the spans of every run. A span's self time is its
// duration minus its child spans' durations and its per-slot calls.
func (t *tracer) totalsByRun() map[string]*runTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*runTotals)
	for _, s := range t.spans {
		rt := out[s.Run]
		if rt == nil {
			rt = &runTotals{
				dur:    make(map[string]float64),
				self:   make(map[string]float64),
				calls:  make(map[string]callSum),
				counts: make(map[string]int64),
			}
			out[s.Run] = rt
		}
		dur := s.End - s.Start
		self := dur - children[s.ID]
		for name, c := range s.Calls {
			self -= c.NS
			sum := rt.calls[name]
			sum.N += c.N
			sum.NS += c.NS
			rt.calls[name] = sum
		}
		for name, n := range s.Counts {
			rt.counts[name] += n
		}
		rt.dur[s.Name] += float64(dur) / 1e9
		rt.self[s.Name] += float64(self) / 1e9
	}
	return out
}

// writeFile dumps every span as one JSON document, ordered by start.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(map[string]any{"epoch": t.epoch.Format(time.RFC3339Nano), "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
