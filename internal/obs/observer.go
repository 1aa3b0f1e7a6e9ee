package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Observer bundles a Registry, Tracer and EventLog behind one clock —
// the handle instrumented code takes. A nil *Observer is a valid
// no-op sink, so callers never branch on "is telemetry attached".
type Observer struct {
	reg    *Registry
	tracer *Tracer
	events *EventLog
	clock  func() time.Time
}

// NewObserver builds a fresh observer around the given clock
// (time.Now when nil), keeping the last DefaultSpanCapacity finished
// spans and DefaultEventCapacity events. Pass a FakeClock's Now for
// deterministic snapshots in tests.
func NewObserver(clock func() time.Time) *Observer {
	if clock == nil {
		clock = time.Now
	}
	return &Observer{
		reg:    NewRegistry(),
		tracer: NewTracer(clock),
		events: NewEventLog(clock),
		clock:  clock,
	}
}

var (
	defaultMu  sync.Mutex
	defaultObs *Observer
)

// Default returns the process-wide observer, creating it on first
// use. Instrumented packages fall back to it when no observer is
// injected, so `vlsicad -stats`-style reporting works with zero
// plumbing.
func Default() *Observer {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultObs == nil {
		defaultObs = NewObserver(nil)
	}
	return defaultObs
}

// Registry returns the metric registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the span tracer (nil for a nil observer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Events returns the event log (nil for a nil observer).
func (o *Observer) Events() *EventLog {
	if o == nil {
		return nil
	}
	return o.events
}

// Now reads the observer's clock (wall time for a nil observer).
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Now()
	}
	return o.clock()
}

// Counter is shorthand for Registry().Counter.
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge.
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram is shorthand for Registry().Histogram.
func (o *Observer) Histogram(name string, bounds ...float64) *Histogram {
	return o.Registry().Histogram(name, bounds...)
}

// CounterVec is shorthand for Registry().CounterVec.
func (o *Observer) CounterVec(name string, keys ...string) *CounterVec {
	return o.Registry().CounterVec(name, keys...)
}

// GaugeVec is shorthand for Registry().GaugeVec.
func (o *Observer) GaugeVec(name string, keys ...string) *GaugeVec {
	return o.Registry().GaugeVec(name, keys...)
}

// HistogramVec is shorthand for Registry().HistogramVec.
func (o *Observer) HistogramVec(name string, keys []string, bounds ...float64) *HistogramVec {
	return o.Registry().HistogramVec(name, keys, bounds...)
}

// StartSpan is shorthand for Tracer().Start.
func (o *Observer) StartSpan(name string) *Span { return o.Tracer().Start(name) }

// Emit is shorthand for Events().Emit.
func (o *Observer) Emit(kind string, fields map[string]string) { o.Events().Emit(kind, fields) }

// Snapshot is a complete, export-ready copy of the observer's state.
// SpansDropped and EventsDropped count what fell off the bounded
// span and event rings, so a page shows what it no longer holds.
type Snapshot struct {
	Metrics       RegistrySnapshot `json:"metrics"`
	Spans         []SpanRecord     `json:"spans,omitempty"`
	SpansDropped  int64            `json:"spans_dropped,omitempty"`
	Events        []Event          `json:"events,omitempty"`
	EventsDropped int64            `json:"events_dropped,omitempty"`
}

// Snapshot captures metrics, finished spans and retained events, with
// the counts of those the rings dropped.
func (o *Observer) Snapshot() Snapshot {
	s := Snapshot{Metrics: o.Registry().Snapshot()}
	s.Spans, s.SpansDropped = o.Tracer().snapshot()
	s.Events, s.EventsDropped = o.Events().snapshot()
	return s
}

// WriteJSON emits the snapshot as indented JSON. Map keys are sorted
// by encoding/json, so the output is deterministic for a
// deterministic clock and operation sequence.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the snapshot as a human-readable telemetry page:
// sorted metrics, then spans (indented per parent), then events.
func (s Snapshot) WriteText(w io.Writer) {
	s.Metrics.WriteText(w)
	if len(s.Spans) > 0 {
		fmt.Fprintf(w, "spans (%d finished%s):\n", len(s.Spans), droppedNote(s.SpansDropped))
		depth := map[int64]int{}
		for _, sp := range s.Spans {
			d := 0
			if sp.Parent != 0 {
				d = depth[sp.Parent] + 1
			}
			depth[sp.ID] = d
			fmt.Fprintf(w, "  %*s%-28s %12.6fs", 2*d, "", sp.Name,
				sp.Duration.Seconds())
			if len(sp.Labels) > 0 {
				keys := make([]string, 0, len(sp.Labels))
				for k := range sp.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, " %s=%s", k, sp.Labels[k])
				}
			}
			fmt.Fprintln(w)
		}
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(w, "events (%d retained%s):\n", len(s.Events), droppedNote(s.EventsDropped))
		for _, e := range s.Events {
			fmt.Fprintf(w, "  #%d %s", e.Seq, e.Kind)
			keys := make([]string, 0, len(e.Fields))
			for k := range e.Fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, " %s=%s", k, e.Fields[k])
			}
			fmt.Fprintln(w)
		}
	}
}

// droppedNote is the ", N dropped" suffix of a ring's header on the
// text page, empty when the ring dropped nothing.
func droppedNote(n int64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", %d dropped", n)
}

// FakeClock is a deterministic clock for tests: every Now() call
// advances it by a fixed step, so durations and timestamps depend
// only on the call sequence.
type FakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewFakeClock starts at start, advancing by step per Now() call. No
// program uses it: it is the fake clock that the tests of several
// packages share, so their telemetry snapshots are reproducible.
func NewFakeClock(start time.Time, step time.Duration) *FakeClock {
	return &FakeClock{t: start, step: step}
}

// Now returns the current fake time and advances the clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// Advance moves the clock forward by d without a tick. Tests use it
// to step past cooldowns and deadlines.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
