package vlsicad

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
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

// TestFlowStagesAndSpans: every stage, parse included, appears in the
// timing table and as a child span of the flow root.
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
		if f.Stages[i].Duration <= 0 {
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
	rootChildren := map[string]bool{}
	for _, sp := range f.Trace[1:] {
		// Stage spans hang off the root; level spans off the place
		// stage — either way the parent must be inside this trace.
		if !inTrace[sp.Parent] {
			t.Errorf("span %s not parented inside the flow trace", sp.Name)
		}
		children[sp.Name] = true
		if sp.Parent == rootID {
			rootChildren[sp.Name] = true
		}
	}
	for _, w := range wantStages {
		if !rootChildren["flow."+w] {
			t.Errorf("missing child span flow.%s of the flow root", w)
		}
	}
	if f.Trace[0].Labels["ok"] != "true" || f.Trace[0].Labels["model"] != "adder2" {
		t.Errorf("root labels = %v, want ok=true model=adder2", f.Trace[0].Labels)
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

// TestFlowParseFailureCounted: input that does not parse is a failed
// run like any other — counted in flow_runs_total, flow_runs_failed
// and flow_stage_errors_total{stage="parse"}, with a flow root span
// labelled ok=false over its flow.parse child.
func TestFlowParseFailureCounted(t *testing.T) {
	ob := obs.NewObserver(obs.NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond).Now)
	f, err := RunFlow(strings.NewReader(".model bad\n.names a\n2 1\n.end\n"), FlowOpts{Seed: 1, Obs: ob})
	if err == nil || f != nil {
		t.Fatalf("RunFlow on garbage BLIF = %v, %v; want nil Flow and an error", f, err)
	}
	snap := ob.Snapshot()
	m := snap.Metrics
	if m.Counters["flow_runs_total"] != 1 || m.Counters["flow_runs_failed"] != 1 {
		t.Errorf("flow_runs_total = %d, flow_runs_failed = %d, want 1 and 1",
			m.Counters["flow_runs_total"], m.Counters["flow_runs_failed"])
	}
	if v, ok := m.CounterSeries("flow_stage_errors_total", map[string]string{"stage": "parse"}); !ok || v != 1 {
		t.Errorf("flow_stage_errors_total{stage=parse} = %d (present %v), want 1", v, ok)
	}
	var root obs.SpanRecord
	for _, sp := range snap.Spans {
		if sp.Name == "flow" && sp.Parent == 0 {
			root = sp
		}
	}
	if root.ID == 0 || root.Labels["ok"] != "false" {
		t.Fatalf("flow root span = %+v, want one labelled ok=false", root)
	}
	var stages []string
	for _, sp := range snap.Spans {
		if sp.Parent == root.ID {
			stages = append(stages, sp.Name)
		}
	}
	if len(stages) != 1 || stages[0] != "flow.parse" {
		t.Errorf("root children = %v, want [flow.parse]", stages)
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

// TestFlowTraceConcurrentRuns: flows sharing one observer each get a
// trace of exactly their own spans — one root, one span per stage they
// ran, every other span under those — and together the traces hold
// every span the tracer finished.
func TestFlowTraceConcurrentRuns(t *testing.T) {
	ob := obs.NewObserver(nil)
	const runs = 4
	flows := make([]*Flow, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range flows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flows[i], errs[i] = RunFlow(strings.NewReader(obsTestBLIF),
				FlowOpts{Seed: int64(i + 1), CheckDRC: true, AnnealPlace: i%2 == 1, Obs: ob})
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for i, f := range flows {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		var roots int
		in := map[int64]bool{}
		var stages []string
		for _, sp := range f.Trace {
			if seen[sp.ID] {
				t.Errorf("run %d: span %d %s is in two traces", i, sp.ID, sp.Name)
			}
			seen[sp.ID] = true
			switch {
			case sp.Parent == 0:
				roots++
				if sp.Name != "flow" || sp.ID != f.Trace[0].ID {
					t.Errorf("run %d: root %d %s, want the flow root first", i, sp.ID, sp.Name)
				}
			case !in[sp.Parent]:
				t.Errorf("run %d: span %d %s has parent %d outside the trace", i, sp.ID, sp.Name, sp.Parent)
			case sp.Parent == f.Trace[0].ID:
				stages = append(stages, strings.TrimPrefix(sp.Name, "flow."))
			}
			in[sp.ID] = true
		}
		if roots != 1 {
			t.Errorf("run %d: %d root spans, want 1", i, roots)
		}
		var want []string
		for _, st := range f.Stages {
			want = append(want, st.Name)
		}
		if strings.Join(stages, ",") != strings.Join(want, ",") {
			t.Errorf("run %d: stage spans %v, want %v", i, stages, want)
		}
	}
	if all := ob.Tracer().Snapshot(); len(all) != len(seen) {
		t.Errorf("traces hold %d spans, tracer finished %d", len(seen), len(all))
	}
}
