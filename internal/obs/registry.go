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

// bucketBounds returns a sorted copy of bounds, or
// DefaultLatencyBuckets when there are none.
func bucketBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return DefaultLatencyBuckets()
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

// Registry holds named metrics. All methods are safe for concurrent
// use and safe on a nil receiver (returning nil no-op metrics).
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (DefaultLatencyBuckets when none) on first use.
// Fetching an existing histogram with explicit bounds that differ
// from its registered ones panics: silently returning the old buckets
// would file observations into bounds the caller never asked for.
// Calls with no explicit bounds accept whatever is registered.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h == nil {
		r.mu.Lock()
		if h = r.hists[name]; h == nil {
			h = newHistogram(bucketBounds(bounds))
			r.hists[name] = h
		}
		r.mu.Unlock()
	}
	if len(bounds) > 0 && !slices.Equal(h.bounds, bucketBounds(bounds)) {
		panic("obs: histogram " + name + " re-registered with different bucket bounds")
	}
	return h
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

// Snapshot copies the registry. Nil registries snapshot empty.
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
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapHistogram(h)
	}
	s.CounterVecs = series(r.counterVecs, func(labels map[string]string, c *Counter) LabeledCounter {
		return LabeledCounter{Labels: labels, Value: c.Value()}
	})
	s.GaugeVecs = series(r.gaugeVecs, func(labels map[string]string, g *Gauge) LabeledGauge {
		return LabeledGauge{Labels: labels, Value: g.Value()}
	})
	s.HistogramVecs = series(r.histVecs, func(labels map[string]string, h *Histogram) LabeledHistogram {
		return LabeledHistogram{Labels: labels, Hist: snapHistogram(h)}
	})
	return s
}

// WriteText renders the snapshot as an aligned, sorted metrics page.
func (s RegistrySnapshot) WriteText(w io.Writer) {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "counter    %-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "gauge      %-40s %g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(w, "histogram  %-40s count=%d sum=%.6g mean=%.6g\n",
			n, h.Count, h.Sum, h.Mean())
	}
	names = names[:0]
	for n := range s.CounterVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, sr := range s.CounterVecs[n] {
			fmt.Fprintf(w, "counter    %-40s %d\n",
				n+"{"+LabelString(sr.Labels)+"}", sr.Value)
		}
	}
	names = names[:0]
	for n := range s.GaugeVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, sr := range s.GaugeVecs[n] {
			fmt.Fprintf(w, "gauge      %-40s %g\n",
				n+"{"+LabelString(sr.Labels)+"}", sr.Value)
		}
	}
	names = names[:0]
	for n := range s.HistogramVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, sr := range s.HistogramVecs[n] {
			h := sr.Hist
			fmt.Fprintf(w, "histogram  %-40s count=%d sum=%.6g mean=%.6g\n",
				n+"{"+LabelString(sr.Labels)+"}", h.Count, h.Sum, h.Mean())
		}
	}
}
