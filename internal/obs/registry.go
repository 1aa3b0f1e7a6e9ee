// Package obs is the repo's stdlib-only observability layer: a
// process-wide Registry of counters, gauges and fixed-bucket latency
// histograms; lightweight tracing Spans with an injectable clock; and
// a bounded structured event log. The paper's course ran as a cloud
// service evaluated entirely through usage statistics — this package
// is the instrument that lets the reproduction measure itself the
// same way (per-tool job counts, per-stage flow timings, grading
// pass-rates) before any scaling work.
//
// Everything is nil-safe: a nil *Registry, *Counter, *Span, etc. is a
// no-op, so instrumented code pays (almost) nothing when telemetry is
// detached. Snapshots are deterministic: given the same sequence of
// operations and the same (possibly fake) clock, the text and JSON
// exports are byte-for-byte identical.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can move both ways (e.g. in-flight
// jobs).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current reading (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultLatencyBuckets are histogram bounds in seconds, spanning
// microsecond tool calls to the portal's multi-second runaway limit.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
}

// Histogram is a fixed-bucket distribution. Bucket i counts
// observations v <= Bounds[i]; the final implicit bucket counts the
// overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// defaultBounds is DefaultLatencyBuckets shared by every histogram
// registered without bounds, so looking one up does not allocate.
var defaultBounds = DefaultLatencyBuckets()

// bucketBounds returns a sorted copy of bounds, or the shared
// defaultBounds when there are none.
func bucketBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return defaultBounds
	}
	b := slices.Clone(bounds)
	sort.Float64s(b)
	return b
}

// newHistogram returns an empty histogram over bounds, which must be
// sorted and are shared, not copied.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds. Safe on nil.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Registry holds named metrics. A flat metric is a family without
// label keys, so each kind keeps one map of families and there is one
// registration path for flat and labeled metrics alike. All methods
// are safe for concurrent use and safe on a nil receiver (returning
// nil no-op metrics).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*CounterVec{},
		gauges:   map[string]*GaugeVec{},
		hists:    map[string]*HistogramVec{},
	}
}

// Counter returns the named flat counter, creating it on first use:
// the one series of a counter family without label keys.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With() }

// Gauge returns the named flat gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With() }

// Histogram returns the named flat histogram, creating it with the
// given bucket bounds (DefaultLatencyBuckets when none) on first use.
// Bounds follow HistogramVec's rule: explicit bounds that differ from
// the registered ones panic, no bounds accept whatever is registered.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	return r.HistogramVec(name, nil, bounds...).With()
}

// RegistrySnapshot is a point-in-time copy of every metric. The
// labeled-family slices are sorted by each series' LabelString, so a
// snapshot of a deterministic op sequence is itself deterministic.
type RegistrySnapshot struct {
	Counters      map[string]int64              `json:"counters,omitempty"`
	Gauges        map[string]float64            `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot  `json:"histograms,omitempty"`
	CounterVecs   map[string][]LabeledCounter   `json:"counter_vecs,omitempty"`
	GaugeVecs     map[string][]LabeledGauge     `json:"gauge_vecs,omitempty"`
	HistogramVecs map[string][]LabeledHistogram `json:"histogram_vecs,omitempty"`
}

// snapHistogram copies one histogram's live state.
func snapHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// Snapshot copies the registry. Label-less families fill the flat
// maps. Nil registries snapshot empty.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s.CounterVecs = series(r.counters, s.Counters, (*Counter).Value,
		func(labels map[string]string, v int64) LabeledCounter { return LabeledCounter{labels, v} })
	s.GaugeVecs = series(r.gauges, s.Gauges, (*Gauge).Value,
		func(labels map[string]string, v float64) LabeledGauge { return LabeledGauge{labels, v} })
	s.HistogramVecs = series(r.hists, s.Histograms, snapHistogram,
		func(labels map[string]string, h HistogramSnapshot) LabeledHistogram {
			return LabeledHistogram{labels, h}
		})
	return s
}

// WriteText renders the snapshot as an aligned, sorted metrics page:
// the unlabeled series of every kind, then the labeled ones.
func (s RegistrySnapshot) WriteText(w io.Writer) {
	var flat, labeled strings.Builder
	line := func(kind, name string, labels map[string]string, value string) {
		if len(labels) == 0 {
			fmt.Fprintf(&flat, "%-10s %-40s %s\n", kind, name, value)
		} else {
			fmt.Fprintf(&labeled, "%-10s %-40s %s\n", kind, name+"{"+LabelString(labels)+"}", value)
		}
	}
	s.eachCounter(func(name string, sr LabeledCounter) {
		line("counter", name, sr.Labels, strconv.FormatInt(sr.Value, 10))
	})
	s.eachGauge(func(name string, sr LabeledGauge) {
		line("gauge", name, sr.Labels, fmt.Sprintf("%g", sr.Value))
	})
	s.eachHistogram(func(name string, sr LabeledHistogram) {
		h := sr.Hist
		line("histogram", name, sr.Labels, fmt.Sprintf("count=%d sum=%.6g mean=%.6g", h.Count, h.Sum, h.Mean()))
	})
	io.WriteString(w, flat.String())
	io.WriteString(w, labeled.String())
}
