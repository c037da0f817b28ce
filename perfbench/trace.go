package main

// Spans recorded by the benchmark around every public call it makes, kept
// in memory during a traced run and written at the end in the
// internal/obs JSONL span format (cmd/tracestats reads it). A span's self
// time is its duration minus the part of it its children cover.

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"spanner/internal/obs"
)

// span is one recorded interval.
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Time
}

// tracer collects spans; a nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// record stores a finished span and returns its id (0 when tracing is off).
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// open starts a span whose children need its id before it ends; finish
// it with close.
func (t *tracer) open(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, parent, now, now)
}

// close ends a span opened with open.
func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Now()
	t.mu.Unlock()
}

// timed runs f inside a span and returns f's duration.
func (t *tracer) timed(name string, parent int64, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, parent, start, end)
	return end.Sub(start)
}

// write emits every span as a span_start/span_end pair in time order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	type ev struct {
		at time.Time
		e  obs.Event
	}
	evs := make([]ev, 0, 2*len(t.spans))
	for _, s := range t.spans {
		evs = append(evs,
			ev{s.Start, obs.Event{Type: obs.SpanStart, Name: s.Name, Span: s.ID, Parent: s.Parent,
				TimeUS: s.Start.Sub(t.base).Microseconds()}},
			ev{s.End, obs.Event{Type: obs.SpanEnd, Name: s.Name, Span: s.ID,
				TimeUS: s.End.Sub(t.base).Microseconds(), DurUS: s.End.Sub(s.Start).Microseconds(),
				Attrs: []obs.Attr{obs.I(obs.AttrDurNS, s.End.Sub(s.Start).Nanoseconds())}}})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	for i := range evs {
		evs[i].e.Seq = int64(i + 1)
		sink.Emit(evs[i].e)
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns per-name totals and self times (duration minus the
// union of child intervals), sorted by self time.
func (t *tracer) selfTimes() []selfRow {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End.Sub(s.Start)
		r.Count++
		r.Total += d
		r.Self += d - covered(s, kids[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	for i, c := range children {
		s, e := c.Start, c.End
		if s.Before(p.Start) {
			s = p.Start
		}
		if e.After(p.End) {
			e = p.End
		}
		if !e.After(s) {
			continue
		}
		if i == 0 || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// printSelfTimes writes the self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-34s %8d %12v %12v\n", r.Name, r.Count, r.Total.Round(time.Microsecond), r.Self.Round(time.Microsecond))
	}
}
