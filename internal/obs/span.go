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
//
// For long-running services the ring can additionally be *sampled*:
// with SetSampling(n, seed), only 1-in-n root spans (children follow
// their root's decision) are retained, chosen by a seeded hash of the
// span ID — deterministic for a given seed and call sequence, no RNG
// state to race on. Unsampled spans still time themselves (End
// returns the real duration, histograms fed from it are complete);
// they just never enter the ring.
type Tracer struct {
	mu         sync.Mutex
	clock      func() time.Time
	nextID     int64
	done       ring[SpanRecord] // finished spans
	sampleN    int64            // keep 1-in-N roots; <=1 keeps everything
	sampleSeed uint64           // hash seed for the sampling decision
	sampledOut int64            // finished spans skipped by sampling
}

// DefaultSpanCapacity bounds the finished-span ring of a new Tracer.
const DefaultSpanCapacity = 4096

// NewTracer returns a tracer using the given clock (time.Now when
// nil) keeping at most capacity finished spans (DefaultSpanCapacity
// when <= 0).
func NewTracer(clock func() time.Time, capacity int) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{clock: clock, done: ring[SpanRecord]{cap: capacity}}
}

// SetSampling keeps 1-in-n root spans (n <= 1 keeps all), decided by
// a SplitMix64 hash of seed^spanID. Safe on nil; affects spans
// started after the call.
func (t *Tracer) SetSampling(n int64, seed uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sampleN = n
	t.sampleSeed = seed
	t.mu.Unlock()
}

// SampledOut reports how many finished spans the sampler skipped.
func (t *Tracer) SampledOut() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sampledOut
}

// sampleKeep decides whether a root span with the given id is
// retained. Callers must hold t.mu.
func (t *Tracer) sampleKeep(id int64) bool {
	if t.sampleN <= 1 {
		return true
	}
	z := t.sampleSeed ^ uint64(id)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%uint64(t.sampleN) == 0
}

// Span is one timed operation. Start it with Tracer.Start or
// Span.StartChild, optionally attach labels, then End it — only ended
// spans appear in snapshots. All methods are safe on a nil receiver.
type Span struct {
	tr      *Tracer
	id      int64
	parent  int64
	name    string
	start   time.Time
	sampled bool

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
		// Children inherit the root's sampling decision so retained
		// traces are always whole.
		sp.parent = parent.id
		sp.sampled = parent.sampled
	} else {
		sp.sampled = t.sampleKeep(id)
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
	if !s.sampled {
		t.sampledOut++
		t.mu.Unlock()
		return d
	}
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
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.done.items()
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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

// Dropped reports how many finished spans fell off the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done.dropped
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
