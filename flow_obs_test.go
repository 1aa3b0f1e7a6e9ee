package vlsicad

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

const obsTestBLIF = `.model adder2
.inputs a0 a1 b0 b1
.outputs s0 s1 c
.names a0 b0 s0
10 1
01 1
.names a0 b0 k0
11 1
.names a1 b1 k0 s1
100 1
010 1
001 1
111 1
.names a1 b1 k0 c
11- 1
1-1 1
-11 1
.end
`

// TestFlowStagesAndSpans: every stage appears in the timing table and
// as a child span of the flow root.
func TestFlowStagesAndSpans(t *testing.T) {
	ob := obs.NewObserver(obs.NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond).Now)
	f, err := RunFlow(strings.NewReader(obsTestBLIF),
		FlowOpts{Seed: 1, CheckDRC: true, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"parse", "synth", "verify", "map", "place", "route", "drc", "timing"}
	if len(f.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v", f.Stages)
	}
	for i, w := range wantStages {
		if f.Stages[i].Name != w {
			t.Errorf("stage %d = %s, want %s", i, f.Stages[i].Name, w)
		}
		if w != "parse" && f.Stages[i].Duration <= 0 {
			t.Errorf("stage %s has no duration", w)
		}
	}
	if len(f.Trace) == 0 || f.Trace[0].Name != "flow" {
		t.Fatalf("trace should start with the flow root: %+v", f.Trace)
	}
	rootID := f.Trace[0].ID
	inTrace := map[int64]bool{rootID: true}
	for _, sp := range f.Trace[1:] {
		inTrace[sp.ID] = true
	}
	children := map[string]bool{}
	for _, sp := range f.Trace[1:] {
		// Stage spans hang off the root; level spans off the place
		// stage — either way the parent must be inside this trace.
		if !inTrace[sp.Parent] {
			t.Errorf("span %s not parented inside the flow trace", sp.Name)
		}
		children[sp.Name] = true
	}
	for _, w := range wantStages[1:] {
		if !children["flow."+w] {
			t.Errorf("missing child span flow.%s", w)
		}
	}
	m := ob.Snapshot().Metrics
	if m.Counters["flow_runs_total"] != 1 {
		t.Errorf("flow_runs_total = %d", m.Counters["flow_runs_total"])
	}
	for _, w := range wantStages {
		h, ok := m.HistogramSeries("flow_stage_seconds", map[string]string{"stage": w})
		if !ok || h.Count != 1 {
			t.Errorf("histogram series for stage %s count = %d (present %v), want 1", w, h.Count, ok)
		}
	}
	if tab := f.StageTable(); !strings.Contains(tab, "synth") || !strings.Contains(tab, "total") {
		t.Errorf("stage table:\n%s", tab)
	}
}

// TestFlowSnapshotDeterministic: with an injected fake clock the full
// JSON telemetry snapshot is byte-for-byte identical across runs —
// the acceptance bar for reproducible stage timings. The flow routes
// and places with GOMAXPROCS workers by default, so the check runs at
// GOMAXPROCS 1, 2 and 4 in one process: a duration read from the wall
// clock anywhere in the engines would show up on any machine.
func TestFlowSnapshotDeterministic(t *testing.T) {
	run := func() []byte {
		ob := obs.NewObserver(obs.NewFakeClock(time.Unix(1700000000, 0).UTC(), 250*time.Microsecond).Now)
		_, err := RunFlow(strings.NewReader(obsTestBLIF),
			FlowOpts{Seed: 7, CheckDRC: true, WireModel: true, AnnealPlace: true, Obs: ob})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ob.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Errorf("GOMAXPROCS=%d: telemetry snapshots differ between identical runs under a fake clock", procs)
		}
		if !bytes.Contains(a, []byte(`"flow.route"`)) {
			t.Errorf("GOMAXPROCS=%d: snapshot should contain the route stage span", procs)
		}
	}
}

// TestFlowAnnealPlace: the opt-in annealing refinement never worsens
// HPWL, is byte-identical for every PlaceWorkers value (chains, not
// workers, determine the result), and lands its chain telemetry.
func TestFlowAnnealPlace(t *testing.T) {
	base, err := RunFlow(strings.NewReader(obsTestBLIF), FlowOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Flow, *obs.Observer) {
		ob := obs.NewObserver(obs.NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond).Now)
		f, err := RunFlow(strings.NewReader(obsTestBLIF),
			FlowOpts{Seed: 3, AnnealPlace: true, PlaceWorkers: workers, Obs: ob})
		if err != nil {
			t.Fatal(err)
		}
		return f, ob
	}
	ref, ob := run(1)
	if ref.HPWL > base.HPWL {
		t.Errorf("annealed HPWL %g worse than legalized %g", ref.HPWL, base.HPWL)
	}
	for _, w := range []int{2, 4, 0} {
		f, _ := run(w)
		if f.HPWL != ref.HPWL {
			t.Errorf("workers=%d: HPWL %g != serial %g", w, f.HPWL, ref.HPWL)
		}
		if len(f.Placement.X) != len(ref.Placement.X) {
			t.Fatalf("workers=%d: placement size differs", w)
		}
		for i := range ref.Placement.X {
			if f.Placement.X[i] != ref.Placement.X[i] || f.Placement.Y[i] != ref.Placement.Y[i] {
				t.Fatalf("workers=%d: cell %d placed differently", w, i)
			}
		}
	}
	m := ob.Snapshot().Metrics
	for _, kind := range []string{"moves", "accepted", "recomputes"} {
		if v, ok := m.CounterSeries("flow_place_chain_events_total", map[string]string{"kind": kind}); !ok || v < 0 {
			t.Errorf("flow_place_chain_events_total{kind=%s} = %d (present %v)", kind, v, ok)
		}
	}
	if v, ok := m.CounterSeries("flow_place_chain_events_total", map[string]string{"kind": "moves"}); !ok || v <= 0 {
		t.Errorf("no chain moves recorded: %d (present %v)", v, ok)
	}
	if h, ok := m.HistogramSeries("flow_stage_seconds", map[string]string{"stage": "place"}); !ok || h.Count != 1 {
		t.Errorf("place stage histogram count = %d (present %v)", h.Count, ok)
	}
	if g, ok := m.Gauges["flow_place_anneal_hpwl"]; !ok || g <= 0 {
		t.Errorf("flow_place_anneal_hpwl = %g (present %v)", g, ok)
	}
	chainSpans := 0
	for _, sp := range ref.Trace {
		if sp.Name == "flow.place.chain" {
			chainSpans++
		}
	}
	if chainSpans != 4 {
		t.Errorf("flow.place.chain spans = %d, want 4 (one per chain)", chainSpans)
	}
}

// TestFlowDefaultObserver: with no observer injected, runs are still
// counted on the process-wide default (zero-plumbing telemetry).
func TestFlowDefaultObserver(t *testing.T) {
	before := obs.Default().Snapshot().Metrics.Counters["flow_runs_total"]
	if _, err := RunFlow(strings.NewReader(obsTestBLIF), FlowOpts{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot().Metrics.Counters["flow_runs_total"]
	if after != before+1 {
		t.Errorf("default observer flow_runs_total %d -> %d, want +1", before, after)
	}
}
