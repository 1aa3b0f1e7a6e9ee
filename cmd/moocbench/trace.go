package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"vlsicad/internal/obs"
)

// spanRec is one finished span as written to the -spans file. Spans of
// one flow share a trace name ("design-3"); the portal's spans are
// roots of the "portal" trace.
type spanRec struct {
	Trace    string `json:"trace"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	Duration int64  `json:"duration_ns"`
}

// tracer keeps every span of a traced run in memory. A nil *tracer is
// tracing off: add is a no-op, so untraced runs pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a root span of the portal trace.
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, spanRec{Trace: "portal", ID: t.next, Name: name,
		StartNS: int64(start.Sub(t.t0)), Duration: int64(d)})
	t.mu.Unlock()
}

// addFlow records the spans one RunFlow left in Flow.Trace, keeping
// their ids and parent links under the given trace name.
func (t *tracer) addFlow(trace string, recs []obs.SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, r := range recs {
		t.spans = append(t.spans, spanRec{Trace: trace, ID: r.ID, Parent: r.Parent, Name: r.Name,
			StartNS: int64(r.Start.Sub(t.t0)), Duration: int64(r.Duration)})
	}
	t.mu.Unlock()
}

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.Duration).Seconds())
		}
	}
	return out
}

// selfTime is one span name's total self time — its spans' durations
// minus the parts their child spans cover — and its span count.
type selfTime struct {
	self  time.Duration
	count int
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		trace string
		id    int64
	}
	child := map[key]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[key{s.Trace, s.Parent}] += time.Duration(s.Duration)
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		e := out[s.Name]
		e.self += time.Duration(s.Duration) - child[key{s.Trace, s.ID}]
		e.count++
		out[s.Name] = e
	}
	return out
}

// writeSelfTable prints the per-layer self-time table, largest first.
func (t *tracer) writeSelfTable(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	var total time.Duration
	for n, e := range st {
		names = append(names, n)
		total += e.self
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(w, "%-28s %12s %7s %9s\n", "span (self time)", "seconds", "share", "count")
	for _, n := range names {
		e := st[n]
		fmt.Fprintf(w, "%-28s %12.6f %6.1f%% %9d\n", n, e.self.Seconds(), 100*e.self.Seconds()/total.Seconds(), e.count)
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
