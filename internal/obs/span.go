package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer hands out Spans and keeps a bounded ring of finished span
// records. The clock is injectable so tests (and the deterministic
// flow snapshot) never depend on wall time. IDs are assigned in start
// order, so with a deterministic clock and call sequence the snapshot
// is fully reproducible.
type Tracer struct {
	mu     sync.Mutex
	clock  func() time.Time
	nextID int64
	done   ring[SpanRecord] // finished spans
}

// DefaultSpanCapacity bounds the finished-span ring of a new Tracer.
const DefaultSpanCapacity = 4096

// NewTracer returns a tracer using the given clock (time.Now when
// nil) keeping at most DefaultSpanCapacity finished spans.
func NewTracer(clock func() time.Time) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{clock: clock, done: ring[SpanRecord]{cap: DefaultSpanCapacity}}
}

// Span is one timed operation. Start it with Tracer.Start or
// Span.StartChild, optionally attach labels, then End it — only ended
// spans appear in snapshots. All methods are safe on a nil receiver.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu     sync.Mutex
	labels map[string]string
	ended  bool
	dur    time.Duration
}

// SpanRecord is a finished span as exported in snapshots.
type SpanRecord struct {
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent,omitempty"` // 0 = root
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Labels   map[string]string `json:"labels,omitempty"`
}

// Start begins a root span. Safe on a nil tracer (returns nil).
func (t *Tracer) Start(name string) *Span { return t.start(name, nil) }

func (t *Tracer) start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	now := t.clock()
	sp := &Span{tr: t, id: id, name: name, start: now}
	if parent != nil {
		sp.parent = parent.id
	}
	t.mu.Unlock()
	return sp
}

// StartChild begins a span parented on s. Safe on a nil span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s)
}

// ID returns the span's id (0 for nil).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetLabel attaches a key/value to the span. Safe on nil and after
// End (late labels are simply dropped from the record).
func (s *Span) SetLabel(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.labels == nil {
		s.labels = map[string]string{}
	}
	s.labels[k] = v
}

// End finishes the span, records it in the tracer's ring, and returns
// its duration. Ending twice records once. Safe on nil (returns 0).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		d := s.dur
		s.mu.Unlock()
		return d
	}
	s.ended = true
	labels := s.labels
	t := s.tr
	d := t.clock().Sub(s.start) // clock is immutable after NewTracer
	s.dur = d
	s.mu.Unlock()

	t.mu.Lock()
	t.done.push(SpanRecord{
		ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: d, Labels: labels,
	})
	t.mu.Unlock()
	return d
}

// Snapshot returns the finished spans in start order (ID). Nil
// tracers snapshot empty.
func (t *Tracer) Snapshot() []SpanRecord {
	out, _ := t.snapshot()
	return out
}

// snapshot is Snapshot plus how many finished spans fell off the
// ring, both read under one lock hold.
func (t *Tracer) snapshot() ([]SpanRecord, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out, dropped := t.done.items(), t.done.dropped
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, dropped
}

// SnapshotTree returns the finished spans of the tree under span root
// — root itself and its descendants — in ID order, leaving out spans
// of other operations that ran on the same tracer meanwhile. A parent
// starts before its children, so one pass in ID order finds them all.
func (t *Tracer) SnapshotTree(root int64) []SpanRecord {
	in := map[int64]bool{root: true}
	var out []SpanRecord
	for _, r := range t.Snapshot() {
		if in[r.ID] || in[r.Parent] {
			in[r.ID] = true
			out = append(out, r)
		}
	}
	return out
}

// WriteJSONL exports the retained spans as JSON Lines (one SpanRecord
// per line, ID order) — the /debug/spans wire format, greppable and
// streamable where the indented snapshot JSON is not. Safe on nil.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, rec := range t.Snapshot() {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
