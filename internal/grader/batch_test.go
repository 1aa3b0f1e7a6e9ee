package grader

import (
	"errors"
	"strings"
	"testing"

	"vlsicad/internal/obs"
	"vlsicad/internal/route"
)

// brokenRouter fails every net — the all-fail reference point.
func brokenRouter(g *route.Grid, net route.Net) (route.Path, error) {
	return nil, errors.New("broken router")
}

func TestBatchAggregation(t *testing.T) {
	b := NewBatch("Project 4: router unit tests")
	b.Add(RunRouterBattery(ReferenceRouter))
	b.Add(RunRouterBattery(ReferenceRouter))
	b.Add(RunRouterBattery(brokenRouter))
	if b.reports != 3 {
		t.Fatalf("reports = %d", b.reports)
	}
	// The reference router passes everything; the broken one passes
	// only the "unroutable detected" unit.
	if got := b.PassRate("short wire, one layer"); got < 0.66 || got > 0.67 {
		t.Errorf("pass rate = %g, want 2/3", got)
	}
	if got := b.PassRate("unroutable detected"); got != 1 {
		t.Errorf("unroutable pass rate = %g, want 1", got)
	}
	if b.PassRate("no such unit") != 0 {
		t.Error("unknown unit should have pass rate 0")
	}
	if b.MeanScore() <= 0.5 || b.MeanScore() >= 1 {
		t.Errorf("mean score = %g", b.MeanScore())
	}

	s := b.String()
	for _, want := range []string{"batch of 3", "unroutable detected", "score distribution"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}

	ob := obs.NewObserver(nil)
	b.Record(ob)
	m := ob.Snapshot().Metrics
	if m.Counters["grader_reports_total"] != 3 {
		t.Errorf("grader_reports_total = %d", m.Counters["grader_reports_total"])
	}
	if m.Counters["grader_unit_pass:unroutable detected"] != 3 {
		t.Errorf("unit pass counter = %d", m.Counters["grader_unit_pass:unroutable detected"])
	}
	if m.Counters["grader_unit_fail:short wire, one layer"] != 1 {
		t.Errorf("unit fail counter = %d", m.Counters["grader_unit_fail:short wire, one layer"])
	}
	if h := m.Histograms["grader_score"]; h.Count != 3 {
		t.Errorf("score histogram count = %d", h.Count)
	}
	if m.Counters["grader_points_possible"] !=
		3*int64(RunRouterBattery(ReferenceRouter).Total()) {
		t.Errorf("points possible = %d", m.Counters["grader_points_possible"])
	}
}
