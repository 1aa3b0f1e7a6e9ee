package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("jobs") != c {
		t.Error("same name should return the same counter")
	}

	g := r.Gauge("inflight")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("lat", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 56.05 {
		t.Errorf("sum = %g, want 56.05", s.Sum)
	}
	wantCounts := []int64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if got := s.Mean(); got < 11.2 || got > 11.22 {
		t.Errorf("mean = %g", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", 1, 2)
	h.Observe(1) // on the bound: counts in bucket <=1
	h.Observe(2.0001)
	s := r.Snapshot().Histograms["edges"]
	if s.Counts[0] != 1 || s.Counts[2] != 1 {
		t.Errorf("counts = %v", s.Counts)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Counter("x").Inc()
	o.Gauge("y").Add(1)
	o.Histogram("z").Observe(1)
	o.Emit("e", map[string]string{"a": "b"})
	sp := o.StartSpan("root")
	sp.SetLabel("k", "v")
	child := sp.StartChild("c")
	child.End()
	if d := sp.End(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	snap := o.Snapshot()
	if len(snap.Spans) != 0 || len(snap.Events) != 0 {
		t.Error("nil observer snapshot should be empty")
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSpansDeterministicUnderFakeClock(t *testing.T) {
	run := func() []byte {
		clk := NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond)
		o := NewObserver(clk.Now)
		root := o.StartSpan("flow")
		root.SetLabel("model", "adder")
		for _, st := range []string{"synth", "map", "place"} {
			sp := root.StartChild("flow." + st)
			o.Histogram("stage_seconds").ObserveDuration(sp.End())
		}
		root.End()
		o.Counter("runs").Inc()
		var buf bytes.Buffer
		if err := o.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}

	clk := NewFakeClock(time.Unix(0, 0).UTC(), time.Second)
	o := NewObserver(clk.Now)
	root := o.StartSpan("r") // tick 0 (start)
	ch := root.StartChild("c")
	if d := ch.End(); d != time.Second {
		t.Errorf("child duration = %v, want 1s", d)
	}
	root.End()
	spans := o.Tracer().Snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "r" || spans[1].Parent != spans[0].ID {
		t.Errorf("span tree wrong: %+v", spans)
	}
	if d := root.End(); d != spans[0].Duration {
		t.Error("double End should return the recorded duration")
	}
	if len(o.Tracer().Snapshot()) != 2 {
		t.Error("double End must not record twice")
	}
}

func TestSpanRingBounded(t *testing.T) {
	o := NewObserver(nil)
	const extra = 6
	for i := 0; i < DefaultSpanCapacity+extra; i++ {
		o.StartSpan(fmt.Sprintf("s%d", i)).End()
	}
	s := o.Snapshot()
	got := s.Spans
	if len(got) != DefaultSpanCapacity {
		t.Fatalf("retained %d spans, want %d", len(got), DefaultSpanCapacity)
	}
	if last := got[len(got)-1].Name; got[0].Name != fmt.Sprintf("s%d", extra) || last != fmt.Sprintf("s%d", DefaultSpanCapacity+extra-1) {
		t.Errorf("ring kept wrong spans: first %s, last %s", got[0].Name, last)
	}
	if s.SpansDropped != extra {
		t.Errorf("dropped = %d, want %d", s.SpansDropped, extra)
	}
	var page strings.Builder
	s.WriteText(&page)
	if want := fmt.Sprintf("spans (%d finished, %d dropped):\n", DefaultSpanCapacity, extra); !strings.Contains(page.String(), want) {
		t.Errorf("text page lacks %q", want)
	}
}

func TestEventLogBounded(t *testing.T) {
	o := NewObserver(nil)
	const extra = 2
	for i := 0; i < DefaultEventCapacity+extra; i++ {
		o.Emit("e", map[string]string{"i": fmt.Sprint(i)})
	}
	s := o.Snapshot()
	got := s.Events
	if len(got) != DefaultEventCapacity {
		t.Fatalf("retained %d events, want %d", len(got), DefaultEventCapacity)
	}
	if got[0].Fields["i"] != fmt.Sprint(extra) || got[len(got)-1].Fields["i"] != fmt.Sprint(DefaultEventCapacity+extra-1) {
		t.Errorf("wrong events retained: first %v, last %v", got[0], got[len(got)-1])
	}
	if got[0].Seq != extra+1 {
		t.Errorf("seq = %d, want %d", got[0].Seq, extra+1)
	}
	if s.EventsDropped != extra {
		t.Errorf("dropped = %d, want %d", s.EventsDropped, extra)
	}
	var page strings.Builder
	s.WriteText(&page)
	if want := fmt.Sprintf("events (%d retained, %d dropped):\n", DefaultEventCapacity, extra); !strings.Contains(page.String(), want) {
		t.Errorf("text page lacks %q", want)
	}
	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"events_dropped": %d`, extra); !strings.Contains(js.String(), want) {
		t.Errorf("JSON snapshot lacks %s", want)
	}
}

// TestRegistryConcurrent hammers every metric kind plus Snapshot from
// many goroutines; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	o := NewObserver(nil)
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", w%4)
			for i := 0; i < iters; i++ {
				o.Counter(name).Inc()
				o.Gauge(name).Add(1)
				o.Histogram(name).Observe(float64(i))
				sp := o.StartSpan(name)
				sp.SetLabel("w", fmt.Sprint(w))
				sp.End()
				o.Emit(name, nil)
				if i%100 == 0 {
					_ = o.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := o.Snapshot()
	var total int64
	for _, v := range snap.Metrics.Counters {
		total += v
	}
	if total != workers*iters {
		t.Errorf("counter total = %d, want %d", total, workers*iters)
	}
	for name, h := range snap.Metrics.Histograms {
		var bucketSum int64
		for _, c := range h.Counts {
			bucketSum += c
		}
		if bucketSum != h.Count {
			t.Errorf("%s: bucket sum %d != count %d", name, bucketSum, h.Count)
		}
	}
}

func TestDefaultObserverSingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default must return the same observer")
	}
}
