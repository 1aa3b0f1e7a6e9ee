package obs

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A *Vec is a family of series sharing one
// name and one label-key set; With(values...) resolves (creating on
// first use) the child metric for one label-value combination. The
// portal uses these for per-tool/per-shard series instead of the
// name+":"+tool string-concat convention the flat registry forced.
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
// no key is ever encoded. A family without keys keeps its one child
// at the root under "".
type family[T any] struct {
	name     string
	keys     []string  // in caller (With-positional) order
	bounds   []float64 // sorted bucket bounds; histogram families only
	newChild func(bounds []float64) *T
	root     sync.Map
}

// CounterVec is a labeled counter family.
type CounterVec = family[Counter]

// GaugeVec is a labeled gauge family.
type GaugeVec = family[Gauge]

// HistogramVec is a labeled histogram family; every child shares the
// family's bucket bounds.
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
	level, last := &f.root, ""
	if n := len(values); n > 0 {
		for _, v := range values[:n-1] {
			next, ok := level.Load(v)
			if !ok {
				next, _ = level.LoadOrStore(v, new(sync.Map))
			}
			level = next.(*sync.Map)
		}
		last = values[n-1]
	}
	child, ok := level.Load(last)
	if !ok {
		child, _ = level.LoadOrStore(last, f.newChild(f.bounds))
	}
	return child.(*T)
}

// lookupVec returns the named family from fams, creating it on first
// use. Re-registering an existing family with different keys panics —
// the two call sites would silently shear one family into
// incompatible series otherwise.
func lookupVec[T any](r *Registry, fams map[string]*family[T], kind, name string,
	keys []string, bounds []float64, newChild func([]float64) *T) *family[T] {
	r.mu.RLock()
	f := fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = fams[name]; f == nil {
			f = &family[T]{name: name, keys: slices.Clone(keys), bounds: bounds, newChild: newChild}
			fams[name] = f
		}
		r.mu.Unlock()
	}
	if !slices.Equal(f.keys, keys) {
		panic("obs: " + kind + " vec " + name + " re-registered with different label keys")
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
	return lookupVec(r, r.counterVecs, "counter", name, keys, nil,
		func([]float64) *Counter { return new(Counter) })
}

// GaugeVec returns the named gauge family, creating it on first use.
// Re-registering with different keys panics.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return lookupVec(r, r.gaugeVecs, "gauge", name, keys, nil,
		func([]float64) *Gauge { return new(Gauge) })
}

// HistogramVec returns the named histogram family with the given
// label keys and bucket bounds (DefaultLatencyBuckets when nil),
// creating it on first use. Re-registering with different keys or
// bounds panics.
func (r *Registry) HistogramVec(name string, keys []string, bounds ...float64) *HistogramVec {
	if r == nil {
		return nil
	}
	want := bucketBounds(bounds)
	v := lookupVec(r, r.histVecs, "histogram", name, keys, want, newHistogram)
	if len(bounds) > 0 && !slices.Equal(v.bounds, want) {
		panic("obs: histogram vec " + name + " re-registered with different bucket bounds")
	}
	return v
}

// series snapshots every family of one kind: entry renders one child
// with its labels. A family's series are sorted by LabelString, ties
// (possible only when values contain ',' or '=') by label values;
// families without children are left out, and the map is nil when
// none has any.
func series[T, S any](fams map[string]*family[T], entry func(labels map[string]string, child *T) S) map[string][]S {
	type item struct {
		id     string
		values []string
		s      S
	}
	var out map[string][]S
	for name, f := range fams {
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
				items = append(items, item{LabelString(labels), values, entry(labels, node.(*T))})
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
// by its labels (0, false when absent).
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
// snapshot by its labels (zero snapshot, false when absent).
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
