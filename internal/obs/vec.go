package obs

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Metric families. A *Vec is a family of series sharing one name and
// one label-key set; With(values...) resolves (creating on first use)
// the child metric for one label-value combination. A flat metric is
// a family without keys: Registry.Counter(name) is
// CounterVec(name).With(). The portal uses labeled families for its
// per-tool and per-shard series.
//
// Hot-path contract: With on an existing child is one lock-free
// sync.Map read per label (no allocation at any arity — locked in by
// TestWithAllocFree), and the returned child is a plain
// *Counter/*Gauge/*Histogram — callers on genuinely hot paths (the
// pool worker loop) resolve children once at registration time and
// keep the handle, paying exactly the flat metric's atomic cost per
// event.
//
// Determinism contract: snapshots list every family's series sorted
// by their label rendering, and label keys inside each series render
// sorted by key, so two registries fed the same operations export
// byte-identical text regardless of creation interleaving.

// family is a labeled family of T metrics. Its children live in a
// trie with one sync.Map level per label key: level i maps the i-th
// label value to level i+1, and the last level maps the last value to
// the child. The path from the root is the child's label values, so
// no key is ever encoded. A family without keys — a flat metric —
// keeps its one child in solo instead, so a flat lookup skips the
// trie.
type family[T any] struct {
	name     string
	keys     []string  // in caller (With-positional) order
	bounds   []float64 // sorted bucket bounds; histogram families only
	newChild func(bounds []float64) *T
	root     sync.Map
	solo     *T // the one child when keys is empty, else nil
}

// CounterVec is a counter family (a flat counter when it has no keys).
type CounterVec = family[Counter]

// GaugeVec is a gauge family (a flat gauge when it has no keys).
type GaugeVec = family[Gauge]

// HistogramVec is a histogram family (a flat histogram when it has no
// keys); every child shares the family's bucket bounds.
type HistogramVec = family[Histogram]

// With returns the child for the given label values (one per
// registered key, in order), creating it on first use. Safe on nil
// (returns a nil no-op child); panics on wrong arity — a programming
// error, caught loudly like a wrong printf verb rather than silently
// mis-filed telemetry.
func (f *family[T]) With(values ...string) *T {
	if f == nil {
		return nil
	}
	if len(values) != len(f.keys) {
		panic("obs: " + f.name + ": wrong label cardinality")
	}
	n := len(values)
	if n == 0 {
		return f.solo
	}
	level := &f.root
	for _, v := range values[:n-1] {
		next, ok := level.Load(v)
		if !ok {
			next, _ = level.LoadOrStore(v, new(sync.Map))
		}
		level = next.(*sync.Map)
	}
	child, ok := level.Load(values[n-1])
	if !ok {
		child, _ = level.LoadOrStore(values[n-1], f.newChild(f.bounds))
	}
	return child.(*T)
}

// lookupVec returns the named family from fams, creating it on first
// use. Re-registering an existing family with different keys panics —
// flat (no keys) against labeled included — since the two call sites
// would silently shear one family into incompatible series otherwise.
func lookupVec[T any](r *Registry, fams map[string]*family[T], kind, name string,
	keys []string, bounds []float64, newChild func([]float64) *T) *family[T] {
	r.mu.RLock()
	f := fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = fams[name]; f == nil {
			f = &family[T]{name: name, keys: slices.Clone(keys), bounds: bounds, newChild: newChild}
			if len(keys) == 0 {
				f.solo = newChild(bounds)
			}
			fams[name] = f
		}
		r.mu.Unlock()
	}
	if !slices.Equal(f.keys, keys) {
		panic("obs: " + kind + " " + name + " re-registered with different label keys")
	}
	return f
}

// CounterVec returns the named counter family with the given label
// keys, creating it on first use. Re-registering with different keys
// panics.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return lookupVec(r, r.counters, "counter", name, keys, nil,
		func([]float64) *Counter { return new(Counter) })
}

// GaugeVec returns the named gauge family, creating it on first use.
// Re-registering with different keys panics.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return lookupVec(r, r.gauges, "gauge", name, keys, nil,
		func([]float64) *Gauge { return new(Gauge) })
}

// HistogramVec returns the named histogram family with the given
// label keys and bucket bounds (DefaultLatencyBuckets when none),
// creating it on first use. Re-registering with different keys, or
// with explicit bounds that differ from the registered ones, panics:
// silently returning the old buckets would file observations into
// bounds the caller never asked for. Calls with no explicit bounds
// accept whatever is registered.
func (r *Registry) HistogramVec(name string, keys []string, bounds ...float64) *HistogramVec {
	if r == nil {
		return nil
	}
	want := bucketBounds(bounds)
	v := lookupVec(r, r.hists, "histogram", name, keys, want, newHistogram)
	if len(bounds) > 0 && !slices.Equal(v.bounds, want) {
		panic("obs: histogram " + name + " re-registered with different bucket bounds")
	}
	return v
}

// series snapshots every family of one kind: value reads one child. A
// family without keys is a flat metric and fills flat[name]. A labeled
// family's series, rendered by entry, are sorted by LabelString, ties
// (possible only when values contain ',' or '=') by label values;
// labeled families without children are left out, and the returned
// map is nil when none has any.
func series[T, V, S any](fams map[string]*family[T], flat map[string]V, value func(*T) V,
	entry func(labels map[string]string, v V) S) map[string][]S {
	type item struct {
		id     string
		values []string
		s      S
	}
	var out map[string][]S
	for name, f := range fams {
		if f.solo != nil {
			flat[name] = value(f.solo)
			continue
		}
		var items []item
		var walk func(level *sync.Map, path []string)
		walk = func(level *sync.Map, path []string) {
			level.Range(func(k, node any) bool {
				values := append(path[:len(path):len(path)], k.(string))
				if len(values) < len(f.keys) {
					walk(node.(*sync.Map), values)
					return true
				}
				labels := make(map[string]string, len(f.keys))
				for i, key := range f.keys {
					labels[key] = values[i]
				}
				items = append(items, item{LabelString(labels), values, entry(labels, value(node.(*T)))})
				return true
			})
		}
		walk(&f.root, nil)
		if len(items) == 0 {
			continue
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].id != items[j].id {
				return items[i].id < items[j].id
			}
			return slices.Compare(items[i].values, items[j].values) < 0
		})
		ss := make([]S, len(items))
		for i, it := range items {
			ss[i] = it.s
		}
		if out == nil {
			out = map[string][]S{}
		}
		out[name] = ss
	}
	return out
}

// LabeledCounter is one series of a counter family in a snapshot.
type LabeledCounter struct {
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
}

// LabeledGauge is one series of a gauge family in a snapshot.
type LabeledGauge struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// LabeledHistogram is one series of a histogram family in a snapshot.
type LabeledHistogram struct {
	Labels map[string]string `json:"labels"`
	Hist   HistogramSnapshot `json:"hist"`
}

// CounterSeries looks one series of a counter family out of the
// snapshot by its labels (0, false when absent).
func (s RegistrySnapshot) CounterSeries(name string, labels map[string]string) (int64, bool) {
	want := LabelString(labels)
	for _, sr := range s.CounterVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Value, true
		}
	}
	return 0, false
}

// GaugeSeries looks one series of a gauge family out of the snapshot
// by its labels (0, false when absent). No program uses it: it is the
// snapshot reader that the tests of several packages share.
func (s RegistrySnapshot) GaugeSeries(name string, labels map[string]string) (float64, bool) {
	want := LabelString(labels)
	for _, sr := range s.GaugeVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Value, true
		}
	}
	return 0, false
}

// HistogramSeries looks one series of a histogram family out of the
// snapshot by its labels (zero snapshot, false when absent). No
// program uses it: it is the snapshot reader that the tests of several
// packages share.
func (s RegistrySnapshot) HistogramSeries(name string, labels map[string]string) (HistogramSnapshot, bool) {
	want := LabelString(labels)
	for _, sr := range s.HistogramVecs[name] {
		if LabelString(sr.Labels) == want {
			return sr.Hist, true
		}
	}
	return HistogramSnapshot{}, false
}

// LabelString renders a label map as `k1=v1,k2=v2` with keys sorted —
// the deterministic series identity used for ordering and text dumps.
func LabelString(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}
