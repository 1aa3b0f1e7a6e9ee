package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The tracer has no sampler: every finished span enters the ring. The
// five tests below pin that retention.

func fakeNow() func() time.Time {
	return NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond).Now
}

// TestSpanSamplingDeterministic: the same call sequence retains the
// same spans, and retains all of them.
func TestSpanSamplingDeterministic(t *testing.T) {
	run := func() []SpanRecord {
		tr := NewTracer(fakeNow())
		for i := 0; i < 400; i++ {
			tr.Start("op").End()
		}
		return tr.Snapshot()
	}
	a, b := run(), run()
	if len(a) != 400 {
		t.Fatalf("kept %d of 400 spans", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same call sequence retained different spans")
	}
}

// TestSpanSamplingChildrenFollowRoot: traces are retained whole —
// every span of every trace, each child with its parent.
func TestSpanSamplingChildrenFollowRoot(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < 60; i++ {
		root := tr.Start("root")
		child := root.StartChild("child")
		child.StartChild("grand").End()
		child.End()
		root.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 180 {
		t.Fatalf("retained %d spans, want all 180", len(recs))
	}
	byID := map[int64]bool{}
	for _, r := range recs {
		byID[r.ID] = true
	}
	for _, r := range recs {
		if r.Parent != 0 && !byID[r.Parent] {
			t.Errorf("span %d (%s) retained without its parent %d", r.ID, r.Name, r.Parent)
		}
	}
}

// TestSamplingDoesNotAffectDurations: End returns the span's duration
// and the retained record carries the same one.
func TestSamplingDoesNotAffectDurations(t *testing.T) {
	tr := NewTracer(fakeNow())
	var durs []time.Duration
	for i := 0; i < 10; i++ {
		d := tr.Start("op").End()
		if d <= 0 {
			t.Fatalf("span %d returned duration %v", i, d)
		}
		durs = append(durs, d)
	}
	for i, r := range tr.Snapshot() {
		if r.Duration != durs[i] {
			t.Errorf("span %d: record duration %v, End returned %v", i, r.Duration, durs[i])
		}
	}
}

func TestSamplingOffKeepsEverything(t *testing.T) {
	o := NewObserver(nil)
	for i := 0; i < 20; i++ {
		o.StartSpan("op").End()
	}
	s := o.Snapshot()
	if got := len(s.Spans); got != 20 {
		t.Errorf("kept %d of 20", got)
	}
	if s.SpansDropped != 0 {
		t.Errorf("SpansDropped = %d below capacity", s.SpansDropped)
	}
}

// TestObserverConfigSampling: NewObserver's tracer runs on the given
// clock and keeps every span up to DefaultSpanCapacity.
func TestObserverConfigSampling(t *testing.T) {
	start := time.Unix(1700000000, 0).UTC()
	o := NewObserver(NewFakeClock(start, time.Millisecond).Now)
	for i := 0; i < 100; i++ {
		o.StartSpan("op").End()
	}
	spans := o.Tracer().Snapshot()
	if len(spans) != 100 {
		t.Fatalf("retained %d of 100 spans", len(spans))
	}
	if !spans[0].Start.Equal(start) {
		t.Errorf("first span starts at %v, want the fake clock's %v", spans[0].Start, start)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond).Now)
	root := tr.Start("a")
	root.SetLabel("tool", "kbdd")
	child := root.StartChild("b")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	// Lines come in ID (start) order: the root "a" first even though
	// it finished after its child.
	var first, second SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.ID >= second.ID {
		t.Errorf("JSONL not in ID order: %d then %d", first.ID, second.ID)
	}
	if first.Name != "a" || first.Labels["tool"] != "kbdd" {
		t.Errorf("root labels lost: %+v", first)
	}
	var nilTr *Tracer
	if err := nilTr.WriteJSONL(&buf); err != nil {
		t.Errorf("nil tracer WriteJSONL: %v", err)
	}
}
