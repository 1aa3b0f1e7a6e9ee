package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"vlsicad"
	"vlsicad/internal/bench"
	"vlsicad/internal/netlist"
	"vlsicad/internal/obs"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
)

// flowSpec is a closed-loop flow workload: one student runs the whole
// logic-to-layout flow on generated designs, one after the other, for
// -seconds.
type flowSpec struct {
	anneal bool
}

var (
	flowQuadratic = flowSpec{}
	flowAnneal    = flowSpec{anneal: true}
)

// flowNodes cycles through the designs' network sizes. Flow time per
// design is heavy-tailed, so a run flows many small designs rather than
// a few large ones: the mean over a seed's list then moves little from
// seed to seed.
var flowNodes = []int{40, 50, 60}

const (
	// flowSetups is how many times a flow workload sets up for the
	// setup_s median.
	flowSetups = 15
	// designsPerSecond sizes the generated design list: this many
	// designs per second of -seconds, several times what the flow
	// completes, so a run ends on its time rather than on its list.
	designsPerSecond = 10
	// fixedDesigns is how many designs every run flows however long they
	// take. The QoR sums and the per-layer work counts cover exactly
	// these, so they repeat for a seed and compare across commits.
	fixedDesigns = 12
	// warmDesigns designs flow once, untimed, before the timed region:
	// they warm the process and record the QoR their timed run repeats.
	warmDesigns = 2
)

// flowStages are the flow's stage names, in execution order.
var flowStages = []string{"parse", "synth", "verify", "map", "place", "route", "drc", "timing"}

type design struct {
	name string
	src  *netlist.Network
	blif string
}

// qor is a design's quality of results; every rerun of the same design
// and seed must reproduce it exactly.
type qor struct {
	HPWL          float64
	Nets, Routed  int
	WireLength    int
	Vias          int
	DRC           int
	CriticalDelay float64
	Area          float64
}

func qorOf(f *vlsicad.Flow) qor {
	return qor{HPWL: f.HPWL, Nets: len(f.Nets), Routed: len(f.Routing.Paths), WireLength: f.WireLength,
		Vias: f.Vias, DRC: len(f.DRC), CriticalDelay: f.CriticalDelay, Area: f.Area}
}

// makeDesigns generates the workload's design list and its BLIF text,
// and reads each text back: it must parse and write out unchanged, so
// the flow is given exactly the generated network.
func makeDesigns(seed int64, count int) ([]design, error) {
	ds := make([]design, count)
	for i := range ds {
		name := fmt.Sprintf("design-%d", i)
		nw := bench.Network(bench.NetworkSpec{Name: name, Inputs: 16, Nodes: flowNodes[i%len(flowNodes)], Outputs: 8},
			seed*1_000_003+int64(i))
		var b, again bytes.Buffer
		if err := netlist.WriteBLIF(&b, nw); err != nil {
			return nil, err
		}
		back, err := netlist.ParseBLIF(bytes.NewReader(b.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("%s: reading the generated BLIF: %v", name, err)
		}
		if err := netlist.WriteBLIF(&again, back); err != nil {
			return nil, err
		}
		if !bytes.Equal(b.Bytes(), again.Bytes()) {
			return nil, fmt.Errorf("%s: the generated BLIF does not read back unchanged", name)
		}
		ds[i] = design{name: name, src: nw, blif: b.String()}
	}
	return ds, nil
}

// opts are the flow options of every run. Placement runs on one
// worker: the placement is the same for any worker count, and annealing
// chains on every core of a small shared machine make the run time how
// the host schedules those cores as much as the placer's own work.
// Routing keeps its default wave engine, the one users run.
func (spec flowSpec) opts(seed int64) vlsicad.FlowOpts {
	return vlsicad.FlowOpts{CheckDRC: true, WireModel: true, VerifyMapping: true, Seed: seed,
		AnnealPlace: spec.anneal, PlaceWorkers: 1, Obs: obs.NewObserver(nil)}
}

// runFlowWorkload flows the design list in order for -seconds, and at
// least its first fixedDesigns designs, timing each RunFlow call and
// checking its result outside the call. The first warmDesigns designs
// flow once more before the timed region, and their timed run must
// repeat that QoR exactly.
func runFlowWorkload(cfg *config, r *result, spec flowSpec) error {
	fixed := fixedDesigns
	if cfg.short {
		fixed = len(flowNodes)
	}
	count := max(fixed, int(math.Ceil(cfg.seconds*designsPerSecond)))
	designs, err := repeatSetup(r, cfg.setups(flowSetups), func() ([]design, error) {
		return makeDesigns(cfg.seed, count)
	}, func([]design) {})
	if err != nil {
		return err
	}
	warm := map[int]qor{}
	for i := 0; i < warmDesigns; i++ {
		f, err := vlsicad.RunFlow(strings.NewReader(designs[i].blif), spec.opts(cfg.seed))
		if err != nil {
			return fmt.Errorf("%s: warm-up flow: %v", designs[i].name, err)
		}
		warm[i] = qorOf(f)
	}

	// Checks run between designs, outside the timed RunFlow calls; the
	// run's -seconds include them.
	var walls []float64
	var nodes int
	stage := map[string]float64{}
	sums := map[string]float64{} // summed over the first fixed designs
	reg := startRegion()
	for i, d := range designs {
		if i >= fixed && time.Since(reg.start).Seconds() >= cfg.seconds {
			break
		}
		opts := spec.opts(cfg.seed)
		t0 := time.Now()
		f, err := vlsicad.RunFlow(strings.NewReader(d.blif), opts)
		wall := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("%s: flow: %v", d.name, err)
			continue
		}
		shared, err := checkFlow(d, f)
		if err != nil {
			r.fail("%s: %v", d.name, err)
			continue
		}
		q := qorOf(f)
		if want, ok := warm[i]; ok && q != want {
			r.fail("%s: QoR %+v differs from the warm-up run's %+v", d.name, q, want)
			continue
		}
		r.tr.addFlow(d.name, f.Trace)
		walls = append(walls, wall.Seconds())
		nodes += len(d.src.Nodes)
		for _, s := range f.Stages {
			stage[s.Name] += s.Duration.Seconds()
		}
		stage["glue"] += rootSelf(f.Trace).Seconds()
		if i >= fixed {
			continue
		}
		waves := opts.Obs.CounterVec("flow_route_wave_events_total", "kind")
		chains := opts.Obs.CounterVec("flow_place_chain_events_total", "kind")
		for name, v := range map[string]float64{
			"map.cells":                float64(f.PlaceProblem.NCells),
			"place.hpwl":               q.HPWL,
			"timing.critical_delay":    q.CriticalDelay,
			"drc.violations":           float64(q.DRC),
			"route.nets":               float64(q.Nets),
			"route.routed":             float64(q.Routed),
			"route.shared_points":      float64(shared),
			"route.expanded":           float64(f.Routing.Expanded),
			"route.nets_failed":        float64(len(f.Routing.Failed)),
			"route.wave.committed":     float64(waves.With("committed").Value()),
			"route.wave.conflicts":     float64(waves.With("conflict").Value()),
			"route.wave.requeued":      float64(waves.With("requeued").Value()),
			"place.quad.cg_iterations": float64(opts.Obs.CounterVec("flow_quad_events_total", "kind").With("cg_iterations").Value()),
			"place.anneal.moves":       float64(chains.With("moves").Value()),
			"place.anneal.accepted":    float64(chains.With("accepted").Value()),
			"place.anneal.recomputes":  float64(chains.With("recomputes").Value()),
			"synth.literals_before":    float64(f.LiteralsBefore),
			"synth.literals_after":     float64(f.LiteralsAfter),
		} {
			sums[name] += v
		}
	}
	reg.end(r)
	if len(walls) == 0 {
		return fmt.Errorf("no design completed")
	}
	r.metrics["runtime.peak_rss_mb"] = single("MB", peakRSSMB())

	total, nd := sum(walls), float64(len(walls))
	m := r.metrics
	m["throughput"] = single("1/s", float64(nodes)/total)
	m["latency_ms"] = single("ms", 1000*total/nd)
	for _, s := range append(flowStages, "glue") {
		m["flow."+s+".s"] = single("s", stage[s]/nd)
	}
	for name, v := range sums {
		m[name] = single("count", v)
	}
	m["place.hpwl"] = single("slot", sums["place.hpwl"])
	m["timing.critical_delay"] = single("delay", sums["timing.critical_delay"])
	m["route.completion"] = single("ratio", ratio(sums["route.routed"], sums["route.nets"]))
	m["route.wave.waste_ratio"] = single("ratio", ratio(sums["route.wave.requeued"], sums["route.wave.committed"]))
	m["place.anneal.accept_ratio"] = single("ratio", ratio(sums["place.anneal.accepted"], sums["place.anneal.moves"]))
	return nil
}

// rootSelf is the flow root span's self time: its duration minus the
// stage spans directly under it.
func rootSelf(trace []obs.SpanRecord) time.Duration {
	var root obs.SpanRecord
	for _, s := range trace {
		if s.Name == "flow" && s.Parent == 0 {
			root = s
		}
	}
	self := root.Duration
	for _, s := range trace {
		if root.ID != 0 && s.Parent == root.ID {
			self -= s.Duration
		}
	}
	return self
}

// checkFlow is the flow's correctness oracle, independent of the
// checks RunFlow makes itself: SAT equivalence of the synthesized
// network with the generated source, a legal placement, and routed
// paths that run pin to pin in unit steps. It returns how many grid
// points carry wires of two nets: rip-up and reroute (route.RouteAll)
// can leave a wire across another net's pin, so the count is reported
// as a metric rather than failed until the router keeps pins reserved.
func checkFlow(d design, f *vlsicad.Flow) (shared int, err error) {
	eq, witness, err := netlist.EquivalentSAT(d.src, f.Synthesized)
	if err != nil {
		return 0, fmt.Errorf("SAT equivalence: %v", err)
	}
	if !eq {
		return 0, fmt.Errorf("synthesis changed the function (witness %v)", witness)
	}
	if err := place.CheckLegal(f.PlaceProblem, f.Placement); err != nil {
		return 0, err
	}
	used := map[route.Point]bool{}
	for _, n := range f.Nets {
		p, ok := f.Routing.Paths[n.Name]
		if !ok {
			continue
		}
		if len(p) == 0 || !(p[0] == n.A && p[len(p)-1] == n.B || p[0] == n.B && p[len(p)-1] == n.A) {
			return 0, fmt.Errorf("net %s: path does not run pin to pin", n.Name)
		}
		for i, pt := range p {
			if i > 0 && manhattan3(p[i-1], pt) != 1 {
				return 0, fmt.Errorf("net %s: path jumps from %v to %v", n.Name, p[i-1], pt)
			}
			if used[pt] {
				shared++
			}
			used[pt] = true
		}
	}
	if len(f.Routing.Paths)+len(f.Routing.Failed) != len(f.Nets) {
		return 0, fmt.Errorf("%d routed + %d failed nets, want %d", len(f.Routing.Paths), len(f.Routing.Failed), len(f.Nets))
	}
	return shared, nil
}

func manhattan3(a, b route.Point) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.L-b.L)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
