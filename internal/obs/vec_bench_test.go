package obs

import "testing"

// The labeled families' hot-path bar: incrementing a labeled counter
// through With must stay within 3x of a flat Counter.Add (see
// BenchmarkCounterInc in bench_test.go); the cached-child pattern the
// pool uses must match the flat cost exactly. With pays one sync.Map
// read per label, so each extra label key adds about the cost of a
// one-label With.

func BenchmarkCounterVecWithInc(b *testing.B) {
	v := NewRegistry().CounterVec("bench_jobs_total", "tool")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("kbdd").Inc()
	}
}

func BenchmarkCounterVecCachedChildInc(b *testing.B) {
	c := NewRegistry().CounterVec("bench_jobs_total", "tool").With("kbdd")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWithIncTwoLabels(b *testing.B) {
	v := NewRegistry().CounterVec("bench_shed_total", "tool", "reason")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("kbdd", "queue").Inc()
	}
}

func BenchmarkCounterVecWithIncThreeLabels(b *testing.B) {
	v := NewRegistry().CounterVec("bench_replay_total", "tool", "user", "reason")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("kbdd", "alice", "queue").Inc()
	}
}

// TestWithAllocFree locks the hot-path contract as a hard test, not
// just a benchmark number: resolving an existing child through With
// must not allocate for one- to four-label families of any kind, nor
// must looking up an existing flat metric by name. A
// regression here reappears in every pool-worker loop that doesn't
// cache its child handle.
func TestWithAllocFree(t *testing.T) {
	r := NewRegistry()
	cv1 := r.CounterVec("alloc_c1_total", "tool")
	cv2 := r.CounterVec("alloc_c2_total", "tool", "reason")
	gv2 := r.GaugeVec("alloc_g2", "tool", "reason")
	hv2 := r.HistogramVec("alloc_h2_seconds", []string{"tool", "reason"})
	cv3 := r.CounterVec("alloc_c3_total", "tool", "user", "reason")
	gv3 := r.GaugeVec("alloc_g3", "tool", "user", "reason")
	hv3 := r.HistogramVec("alloc_h3_seconds", []string{"tool", "user", "reason"})
	cv4 := r.CounterVec("alloc_c4_total", "tool", "user", "shard", "reason")
	gv4 := r.GaugeVec("alloc_g4", "tool", "user", "shard", "reason")
	hv4 := r.HistogramVec("alloc_h4_seconds", []string{"tool", "user", "shard", "reason"})
	// Create the children outside the measured region.
	cv1.With("kbdd").Inc()
	cv2.With("kbdd", "queue").Inc()
	gv2.With("kbdd", "queue").Set(1)
	hv2.With("kbdd", "queue").Observe(0.001)
	cv3.With("kbdd", "alice", "queue").Inc()
	gv3.With("kbdd", "alice", "queue").Set(1)
	hv3.With("kbdd", "alice", "queue").Observe(0.001)
	cv4.With("kbdd", "alice", "7", "queue").Inc()
	gv4.With("kbdd", "alice", "7", "queue").Set(1)
	hv4.With("kbdd", "alice", "7", "queue").Observe(0.001)
	r.Counter("alloc_flat_total").Inc()
	r.Gauge("alloc_flat").Set(1)
	r.Histogram("alloc_flat_seconds").Observe(0.001)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter", func() { r.Counter("alloc_flat_total").Inc() }},
		{"Gauge", func() { r.Gauge("alloc_flat").Set(2) }},
		{"Histogram", func() { r.Histogram("alloc_flat_seconds").Observe(0.002) }},
		{"CounterVec/1", func() { cv1.With("kbdd").Inc() }},
		{"CounterVec/2", func() { cv2.With("kbdd", "queue").Inc() }},
		{"GaugeVec/2", func() { gv2.With("kbdd", "queue").Set(2) }},
		{"HistogramVec/2", func() { hv2.With("kbdd", "queue").Observe(0.002) }},
		{"CounterVec/3", func() { cv3.With("kbdd", "alice", "queue").Inc() }},
		{"GaugeVec/3", func() { gv3.With("kbdd", "alice", "queue").Set(2) }},
		{"HistogramVec/3", func() { hv3.With("kbdd", "alice", "queue").Observe(0.002) }},
		{"CounterVec/4", func() { cv4.With("kbdd", "alice", "7", "queue").Inc() }},
		{"GaugeVec/4", func() { gv4.With("kbdd", "alice", "7", "queue").Set(2) }},
		{"HistogramVec/4", func() { hv4.With("kbdd", "alice", "7", "queue").Observe(0.002) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op on the existing-child path, want 0", tc.name, n)
		}
	}
}

func BenchmarkHistogramVecWithObserve(b *testing.B) {
	v := NewRegistry().HistogramVec("bench_seconds", []string{"tool"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("kbdd").Observe(0.003)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	s := goldenRegistry().Registry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WritePrometheus(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
