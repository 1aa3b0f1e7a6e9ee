package obs

import (
	"fmt"
	"sync"
	"testing"
)

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

func TestVecBasics(t *testing.T) {
	r := NewRegistry()
	jobs := r.CounterVec("jobs_total", "tool")
	jobs.With("kbdd").Add(3)
	jobs.With("espresso").Inc()
	jobs.With("kbdd").Inc()
	if v := jobs.With("kbdd").Value(); v != 4 {
		t.Errorf("jobs{kbdd} = %d, want 4", v)
	}

	depth := r.GaugeVec("queue_depth", "shard")
	depth.With("0").Set(7)
	depth.With("0").Add(-2)
	if v := depth.With("0").Value(); v != 5 {
		t.Errorf("depth{0} = %g, want 5", v)
	}

	lat := r.HistogramVec("job_seconds", []string{"tool"}, 0.1, 1, 10)
	lat.With("kbdd").Observe(0.05)
	lat.With("kbdd").Observe(5)
	s := r.Snapshot()
	h, ok := s.HistogramSeries("job_seconds", map[string]string{"tool": "kbdd"})
	if !ok || h.Count != 2 {
		t.Errorf("job_seconds{kbdd} count = %d (present %v), want 2", h.Count, ok)
	}

	// With returns the same child every time — callers may cache it.
	if jobs.With("kbdd") != jobs.With("kbdd") {
		t.Error("With should return a stable child pointer")
	}
}

func TestVecMultiLabel(t *testing.T) {
	r := NewRegistry()
	shed := r.CounterVec("shed_total", "tool", "reason")
	shed.With("kbdd", "queue").Add(2)
	shed.With("kbdd", "breaker").Inc()
	shed.With("sis", "queue").Inc()
	s := r.Snapshot()
	if v, ok := s.CounterSeries("shed_total", map[string]string{"tool": "kbdd", "reason": "queue"}); !ok || v != 2 {
		t.Errorf("shed{kbdd,queue} = %d (present %v), want 2", v, ok)
	}
	if v, ok := s.CounterSeries("shed_total", map[string]string{"tool": "sis", "reason": "queue"}); !ok || v != 1 {
		t.Errorf("shed{sis,queue} = %d (present %v), want 1", v, ok)
	}
	if _, ok := s.CounterSeries("shed_total", map[string]string{"tool": "sis", "reason": "breaker"}); ok {
		t.Error("series that was never touched should be absent")
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "tool")
	gv := r.GaugeVec("g", "tool", "shard")
	hv := r.HistogramVec("h", []string{"tool"})
	mustPanic(t, "counter too many", func() { cv.With("a", "b") })
	mustPanic(t, "counter too few", func() { cv.With() })
	mustPanic(t, "gauge too few", func() { gv.With("a") })
	mustPanic(t, "histogram too many", func() { hv.With("a", "b") })
}

func TestVecReRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "tool")
	r.CounterVec("c", "tool") // same keys: fine
	mustPanic(t, "counter keys", func() { r.CounterVec("c", "shard") })
	mustPanic(t, "counter arity", func() { r.CounterVec("c", "tool", "shard") })

	r.GaugeVec("g", "tool")
	mustPanic(t, "gauge keys", func() { r.GaugeVec("g", "other") })

	r.HistogramVec("h", []string{"tool"}, 1, 2)
	r.HistogramVec("h", []string{"tool"}, 1, 2) // same: fine
	r.HistogramVec("h", []string{"tool"})       // no explicit bounds: accepts existing
	mustPanic(t, "hist keys", func() { r.HistogramVec("h", []string{"shard"}, 1, 2) })
	mustPanic(t, "hist bounds", func() { r.HistogramVec("h", []string{"tool"}, 1, 2, 3) })
}

// TestHistogramBoundsMismatchPanics: the flat Histogram used to
// silently hand back the existing instance when re-registered with
// different bucket bounds, filing observations into buckets the second
// caller never asked for. Now it panics.
func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 0.1, 1, 10)
	h.Observe(0.5)
	if got := r.Histogram("lat", 0.1, 1, 10); got != h {
		t.Error("same bounds should return the same histogram")
	}
	if got := r.Histogram("lat"); got != h {
		t.Error("no explicit bounds should accept the registered histogram")
	}
	// Order-insensitive: bounds are sorted before comparison.
	if got := r.Histogram("lat", 10, 1, 0.1); got != h {
		t.Error("same bounds in different order should match")
	}
	mustPanic(t, "different bounds", func() { r.Histogram("lat", 0.5, 5) })
	mustPanic(t, "subset bounds", func() { r.Histogram("lat", 0.1, 1) })

	// Default-bucket histograms follow the same rule.
	r.Histogram("lat2")
	r.Histogram("lat2", DefaultLatencyBuckets()...)
	mustPanic(t, "default vs explicit", func() { r.Histogram("lat2", 1, 2) })
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	// Nil registry: families and children are nil no-ops.
	r.CounterVec("c", "tool").With("x").Inc()
	r.GaugeVec("g", "tool").With("x").Set(1)
	r.HistogramVec("h", []string{"tool"}).With("x").Observe(1)
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	cv.With("x").Inc()
	gv.With("x").Add(1)
	hv.With("x").ObserveDuration(0)
	var o *Observer
	o.CounterVec("c", "tool").With("x").Inc()
}

func TestSnapshotSeriesDeterministicOrder(t *testing.T) {
	// Two registries fed the same series in opposite creation order
	// must snapshot identically ordered slices.
	build := func(order []string) RegistrySnapshot {
		r := NewRegistry()
		v := r.CounterVec("jobs", "tool")
		for i, tool := range order {
			v.With(tool).Add(int64(i + 1))
		}
		v.With("espresso").Add(100) // equalize values
		v.With("kbdd").Add(100)
		v.With("sis").Add(100)
		s := r.Snapshot()
		for i := range s.CounterVecs["jobs"] {
			s.CounterVecs["jobs"][i].Value = 0 // compare order only
		}
		return s
	}
	a := build([]string{"kbdd", "espresso", "sis"})
	b := build([]string{"sis", "kbdd", "espresso"})
	as := fmt.Sprintf("%v", a.CounterVecs["jobs"])
	bs := fmt.Sprintf("%v", b.CounterVecs["jobs"])
	if as != bs {
		t.Errorf("series order depends on creation order:\n%s\n%s", as, bs)
	}
	want := []string{"espresso", "kbdd", "sis"}
	for i, sr := range a.CounterVecs["jobs"] {
		if sr.Labels["tool"] != want[i] {
			t.Errorf("series %d = %v, want tool=%s", i, sr.Labels, want[i])
		}
	}
}

func TestLabelString(t *testing.T) {
	if got := LabelString(map[string]string{"b": "2", "a": "1"}); got != "a=1,b=2" {
		t.Errorf("LabelString = %q", got)
	}
	if got := LabelString(nil); got != "" {
		t.Errorf("LabelString(nil) = %q", got)
	}
}

// TestVecConcurrent hammers one family from many goroutines while
// snapshots run — meaningful mainly under -race.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "worker")
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := v.With(fmt.Sprintf("w%d", w%4))
			for i := 0; i < iters; i++ {
				child.Inc()
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, sr := range r.Snapshot().CounterVecs["c"] {
		total += sr.Value
	}
	if total != workers*iters {
		t.Errorf("total = %d, want %d", total, workers*iters)
	}
}

// TestVecSeparatorInValues: label values are kept apart by the family's
// per-label index, not by a separator byte, so values containing the
// old joined-key separator (0x1f) still file into distinct series.
func TestVecSeparatorInValues(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("sep_total", "a", "b")
	v.With("x\x1fy", "z").Add(10)
	v.With("x", "y\x1fz").Inc()
	got := r.Snapshot().CounterVecs["sep_total"]
	want := []LabeledCounter{
		{Labels: map[string]string{"a": "x\x1fy", "b": "z"}, Value: 10},
		{Labels: map[string]string{"a": "x", "b": "y\x1fz"}, Value: 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("series = %#v, want %#v", got, want)
	}
}

// TestVecTiedLabelStrings: values containing ',' or '=' can render two
// series to one LabelString; the snapshot still orders them the same
// way every time (by label values).
func TestVecTiedLabelStrings(t *testing.T) {
	for i := 0; i < 20; i++ {
		r := NewRegistry()
		v := r.CounterVec("tie_total", "a", "b")
		if i%2 == 0 {
			v.With("x,b=y", "z").Add(1)
			v.With("x", "y,b=z").Add(2)
		} else {
			v.With("x", "y,b=z").Add(2)
			v.With("x,b=y", "z").Add(1)
		}
		got := r.Snapshot().CounterVecs["tie_total"]
		if len(got) != 2 || got[0].Value != 2 || got[1].Value != 1 {
			t.Fatalf("run %d: series = %#v, want values [2 1]", i, got)
		}
	}
}

// TestVecNoKeys: a family registered without label keys is the flat
// metric of that name — With() and Counter return one *Counter, and
// its series snapshots under Counters.
func TestVecNoKeys(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("solo_total")
	if v.With() != r.Counter("solo_total") {
		t.Error("CounterVec(name).With() and Counter(name) should be one counter")
	}
	v.With().Add(3)
	r.Counter("solo_total").Inc()
	s := r.Snapshot()
	if got := s.Counters["solo_total"]; got != 4 {
		t.Errorf("Counters[solo_total] = %d, want 4", got)
	}
	if got, ok := s.CounterVecs["solo_total"]; ok {
		t.Errorf("label-less family also snapshots as labeled series %#v", got)
	}
	if r.GaugeVec("solo_gauge").With() != r.Gauge("solo_gauge") {
		t.Error("GaugeVec(name).With() and Gauge(name) should be one gauge")
	}
	if r.HistogramVec("solo_seconds", nil).With() != r.Histogram("solo_seconds") {
		t.Error("HistogramVec(name, nil).With() and Histogram(name) should be one histogram")
	}
	mustPanic(t, "no-key family given a value", func() { v.With("x") })
}

// TestFlatAndLabeledNameCollisionPanics: a name is one family, so
// registering it flat and with label keys — in either order — is a key
// mismatch like any other, not two metrics for the exporter to fold.
func TestFlatAndLabeledNameCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total")
	mustPanic(t, "counter flat then keyed", func() { r.CounterVec("c_total", "tool") })
	r.CounterVec("d_total", "tool")
	mustPanic(t, "counter keyed then flat", func() { r.Counter("d_total") })
	r.Gauge("g")
	mustPanic(t, "gauge flat then keyed", func() { r.GaugeVec("g", "tool") })
	r.HistogramVec("h_seconds", []string{"tool"})
	mustPanic(t, "histogram keyed then flat", func() { r.Histogram("h_seconds") })
}
