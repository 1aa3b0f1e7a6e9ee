// Package vlsicad is the public facade of the VLSI CAD: Logic to
// Layout reproduction: a complete ASIC flow — multi-level synthesis,
// formal verification, technology mapping, placement, routing and
// static timing — assembled from the course's engines under
// internal/. The facade is what the examples and command-line tools
// drive; each stage is also available individually through its
// package.
package vlsicad

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"vlsicad/internal/drc"
	"vlsicad/internal/mls"
	"vlsicad/internal/netlist"
	"vlsicad/internal/obs"
	"vlsicad/internal/place"
	"vlsicad/internal/route"
	"vlsicad/internal/techmap"
	"vlsicad/internal/timing"
)

// Fixed physical-design parameters of the flow. The annealing chain
// count — never the worker count — determines the refined placement.
const (
	flowUtilization = 0.5 // placement density, cells per slot
	flowRouteScale  = 3   // routing tracks per placement slot
	flowPlaceChains = 4   // annealing chains (FlowOpts.AnnealPlace)
)

// FlowOpts configures RunFlow.
type FlowOpts struct {
	// Seed drives the randomized stages (routing rip-up order).
	Seed int64
	// AnnealPlace refines the legalized placement with simulated
	// annealing (place.Anneal, incremental cost, parallel chains). The
	// refinement is kept only when it improves HPWL, so enabling it
	// never worsens the layout.
	AnnealPlace bool
	// PlaceWorkers bounds the placement stage's concurrency — the
	// quadratic placer's per-level region solves and the annealing
	// chains: 0 means GOMAXPROCS. It changes only wall clock; the
	// placement is byte-identical for every value.
	PlaceWorkers int
	// WireModel adds a wire delay to timing: every gate is charged one
	// uniform RC-line delay, taken at the mean routed wirelength, not
	// each net's own wire (ROADMAP direction 2).
	WireModel bool
	// CheckDRC runs design-rule checking on the routed wires.
	CheckDRC bool
	// VerifyMapping formally checks the mapped gate netlist against
	// the synthesized network (BDD equivalence; costly on very wide
	// input spaces).
	VerifyMapping bool
	// Obs receives per-stage spans, latency histograms and result
	// gauges for this run. When nil the process-wide obs.Default()
	// observer is used; inject an observer built on a fake clock for
	// byte-for-byte deterministic snapshots.
	Obs *obs.Observer
}

// StageTiming is one row of the flow's timing table.
type StageTiming struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Flow is the result of a full run: every intermediate artifact plus
// summary metrics.
type Flow struct {
	Source      *netlist.Network
	Synthesized *netlist.Network
	Equivalent  bool // synthesis verified against the source

	Subject *techmap.Subject
	Mapping *techmap.Result

	PlaceProblem *place.Problem
	Placement    *place.Placement

	Grid    *route.Grid
	Nets    []route.Net
	Routing *route.Result

	Timing *timing.Report

	// DRC holds design-rule violations of the routed wires (empty
	// unless FlowOpts.CheckDRC was set and the layout is dirty).
	DRC []drc.Violation

	// Metrics.
	LiteralsBefore int
	LiteralsAfter  int
	Area           float64
	HPWL           float64
	WireLength     int
	Vias           int
	CriticalDelay  float64

	// Stages is the per-stage timing table (parse when RunFlow read
	// the input, then synth, verify, map, place, route, drc, timing),
	// in execution order.
	Stages []StageTiming
	// Trace holds the finished spans of this run (the flow root span
	// and its per-stage children), in start order.
	Trace []obs.SpanRecord
}

// StageTable renders Stages as an aligned text table (the `vlsicad
// -stats` view).
func (f *Flow) StageTable() string {
	var b strings.Builder
	var total time.Duration
	for _, s := range f.Stages {
		total += s.Duration
	}
	fmt.Fprintf(&b, "%-10s %14s %7s\n", "stage", "seconds", "share")
	for _, s := range f.Stages {
		share := 0.0
		if total > 0 {
			share = float64(s.Duration) / float64(total)
		}
		fmt.Fprintf(&b, "%-10s %14.6f %6.1f%%\n", s.Name, s.Duration.Seconds(), 100*share)
	}
	fmt.Fprintf(&b, "%-10s %14.6f\n", "total", total.Seconds())
	return b.String()
}

// RunFlow executes the full logic-to-layout flow on a BLIF model.
// Every stage, parse included, runs in a child span of one "flow"
// root span (Flow.Trace) and adds a Flow.Stages row.
func RunFlow(r io.Reader, opts FlowOpts) (*Flow, error) {
	return runFlow(&flowRun{Flow: &Flow{}, FlowOpts: opts, src: r})
}

// RunFlowOnNetwork is RunFlow starting from an in-memory network.
// No program calls it yet: the flow oracle of ROADMAP direction 4
// will drive it on generated networks, as TestRouteTwoPinGolden does.
func RunFlowOnNetwork(nw *netlist.Network, opts FlowOpts) (*Flow, error) {
	return runFlow(&flowRun{Flow: &Flow{Source: nw.Clone()}, FlowOpts: opts})
}

// flowRun is one run: the Flow being built, which carries each
// stage's artifacts to the next, its options, and the BLIF input (nil
// when the caller passed a network).
type flowRun struct {
	*Flow
	FlowOpts
	src io.Reader
}

// errChanged marks a verification that found a stage changed the
// design's function: the one failure that returns the partial Flow.
var errChanged = errors.New("changed the function")

// runFlow walks the stage table, in execution order, until a stage
// fails. A row's name labels its Flow.Stages row, its flow.<name> span
// and its flow_stage_seconds and flow_stage_errors_total series; a row
// that is not on does not run. The one exit labels and closes the root
// span, attaches Flow.Trace and counts the run.
func runFlow(r *flowRun) (*Flow, error) {
	if r.Obs == nil {
		r.Obs = obs.Default()
	}
	ob, f := r.Obs, r.Flow
	root := ob.StartSpan("flow")
	var err error
	for _, s := range []struct {
		name string
		on   bool
		run  func(*obs.Span) error
	}{
		{"parse", r.src != nil, r.parse},
		{"synth", true, r.synthesize},
		{"verify", true, r.verify},
		{"map", true, r.mapGates},
		{"place", true, r.placeCells},
		{"route", true, r.routeNets},
		{"drc", r.CheckDRC, r.checkDRC},
		{"timing", true, r.analyzeTiming},
	} {
		if !s.on {
			continue
		}
		sp := root.StartChild("flow." + s.name)
		err = s.run(sp)
		d := sp.End()
		f.Stages = append(f.Stages, StageTiming{Name: s.name, Duration: d})
		ob.HistogramVec("flow_stage_seconds", []string{"stage"}).With(s.name).ObserveDuration(d)
		if err != nil {
			ob.CounterVec("flow_stage_errors_total", "stage").With(s.name).Inc()
			break
		}
	}
	if err == nil {
		// Result gauges: the most recent run's quality-of-results.
		ob.Gauge("flow_area").Set(f.Area)
		ob.Gauge("flow_hpwl").Set(f.HPWL)
		ob.Gauge("flow_wirelength").Set(float64(f.WireLength))
		ob.Gauge("flow_critical_delay").Set(f.CriticalDelay)
	}
	if f.Source != nil {
		root.SetLabel("model", f.Source.Name)
	}
	root.SetLabel("ok", strconv.FormatBool(err == nil))
	root.End()
	f.Trace = ob.Tracer().SnapshotTree(root.ID())
	ob.Counter("flow_runs_total").Inc()
	if err != nil {
		ob.Counter("flow_runs_failed").Inc()
		if !errors.Is(err, errChanged) {
			return nil, err
		}
	}
	return f, err
}

func (r *flowRun) parse(*obs.Span) (err error) {
	r.Source, err = netlist.ParseBLIF(r.src)
	return err
}

// synthesize (Weeks 3-4): extract common divisors, simplify, sweep.
func (r *flowRun) synthesize(*obs.Span) error {
	work := r.Source.Clone()
	mls.ExtractKernels(work, "fx_", 10)
	mls.Simplify(work)
	mls.SweepConstants(work)
	r.Synthesized = work
	r.LiteralsBefore, r.LiteralsAfter = r.Source.Literals(), work.Literals()
	return nil
}

// verify checks synthesis with BDD equivalence (Week 2).
func (r *flowRun) verify(*obs.Span) error {
	eq, err := netlist.EquivalentBDD(r.Source, r.Synthesized)
	if err != nil {
		return fmt.Errorf("vlsicad: synthesis verification: %w", err)
	}
	r.Equivalent = eq
	if !eq {
		return fmt.Errorf("vlsicad: synthesis %w", errChanged)
	}
	return nil
}

// mapGates maps the synthesized network onto the standard library
// (Week 5) and, with VerifyMapping, checks the gate netlist against it.
func (r *flowRun) mapGates(*obs.Span) error {
	work := r.Synthesized
	subj, err := techmap.FromNetwork(work)
	if err != nil {
		return err
	}
	r.Subject = subj
	if r.Mapping, err = techmap.Map(subj, techmap.StandardLibrary(), techmap.MinArea); err != nil {
		return err
	}
	r.Area = r.Mapping.Area
	if !r.VerifyMapping {
		return nil
	}
	mapped, err := techmap.ToNetwork(subj, r.Mapping, techmap.StandardLibrary(),
		work.Name+"_mapped", work.Inputs, work.Outputs)
	if err != nil {
		return fmt.Errorf("vlsicad: mapped-netlist export: %w", err)
	}
	eq, err := netlist.EquivalentBDD(work, mapped)
	if err != nil {
		return fmt.Errorf("vlsicad: mapping verification: %w", err)
	}
	if !eq {
		return fmt.Errorf("vlsicad: technology mapping %w", errChanged)
	}
	return nil
}

// placeCells (Week 6) places one cell per mapped gate: quadratic
// placement, legalization and, with AnnealPlace, an annealing
// refinement kept only when it lowers HPWL.
func (r *flowRun) placeCells(sp *obs.Span) error {
	prob, err := placementFromMapping(r.Synthesized, r.Subject, r.Mapping)
	if err != nil {
		return err
	}
	r.PlaceProblem = prob
	// Level telemetry: one labeled family (flow_quad_events_total{kind})
	// plus a child span per bipartition level. OnLevel fires in level
	// order on this goroutine, so the series and spans are
	// deterministic for any PlaceWorkers value.
	quadEvents := r.Obs.CounterVec("flow_quad_events_total", "kind")
	quadRegions, quadLeaves, quadIters :=
		quadEvents.With("regions"), quadEvents.With("leaves"), quadEvents.With("cg_iterations")
	global, err := place.Quadratic(prob, place.QuadraticOpts{
		Workers: r.PlaceWorkers,
		OnLevel: func(ls place.QuadLevelStats) {
			lsp := sp.StartChild("flow.place.quad.level")
			lsp.SetLabel("level", strconv.Itoa(ls.Level))
			lsp.SetLabel("regions", strconv.Itoa(ls.Regions))
			lsp.SetLabel("cells", strconv.Itoa(ls.Cells))
			quadRegions.Add(int64(ls.Regions))
			quadLeaves.Add(int64(ls.Leaves))
			quadIters.Add(int64(ls.CGIterations))
			lsp.End()
		},
	})
	if err != nil {
		return err
	}
	legal, err := place.Legalize(prob, global)
	if err != nil {
		return err
	}
	if err := place.CheckLegal(prob, legal); err != nil {
		return fmt.Errorf("vlsicad: legalization: %w", err)
	}
	r.Placement, r.HPWL = legal, prob.HPWL(legal)
	if !r.AnnealPlace {
		return nil
	}
	// Chain telemetry, as for the levels: flow_place_chain_events_total
	// plus a span per chain. OnChain fires in chain order after all
	// chains finish, so both are deterministic for any PlaceWorkers.
	chainEvents := r.Obs.CounterVec("flow_place_chain_events_total", "kind")
	moves, accepted, recomputes :=
		chainEvents.With("moves"), chainEvents.With("accepted"), chainEvents.With("recomputes")
	res, err := place.Anneal(prob, place.AnnealOpts{
		Seed:    r.Seed,
		Chains:  flowPlaceChains,
		Workers: r.PlaceWorkers,
		Initial: legal,
		OnChain: func(cs place.ChainStats) {
			csp := sp.StartChild("flow.place.chain")
			csp.SetLabel("chain", strconv.Itoa(cs.Chain))
			csp.SetLabel("accepted", strconv.Itoa(cs.Accepted))
			csp.SetLabel("hpwl", strconv.FormatFloat(cs.HPWL, 'g', -1, 64))
			moves.Add(int64(cs.Moves))
			accepted.Add(int64(cs.Accepted))
			recomputes.Add(int64(cs.Recomputes))
			csp.End()
		},
	})
	if err != nil {
		return fmt.Errorf("vlsicad: annealing: %w", err)
	}
	if res.HPWL < r.HPWL {
		r.Placement, r.HPWL = res.Placement, res.HPWL
	}
	r.Obs.Gauge("flow_place_anneal_hpwl").Set(res.HPWL)
	return nil
}

// routeNets maze-routes the nets with targeted rip-up (Week 7).
func (r *flowRun) routeNets(*obs.Span) error {
	r.Grid, r.Nets = routingFromPlacement(r.PlaceProblem, r.Placement)
	r.Routing = route.RouteAll(r.Grid, r.Nets, route.Opts{
		Alg:         route.AStar,
		Order:       route.OrderShortFirst,
		RipupRounds: 5,
		Seed:        r.Seed,
	})
	r.WireLength, r.Vias = r.Routing.Length, r.Routing.Vias
	return nil
}

// checkDRC runs design-rule checking on the routed wires. Pitch 6
// with half-pitch wires keeps legally routed tracks clean under the
// default 2-unit rules.
func (r *flowRun) checkDRC(*obs.Span) error {
	r.DRC = drc.Check(drc.WiresToShapes(r.Routing.Paths, 6), drc.DefaultRules())
	r.Obs.Counter("flow_drc_violations").Add(int64(len(r.DRC)))
	if len(r.DRC) > 0 {
		r.Obs.Emit("flow.drc_violations", map[string]string{
			"model": r.Source.Name, "count": strconv.Itoa(len(r.DRC)),
		})
	}
	return nil
}

// analyzeTiming runs static timing over the mapped gates (Week 8),
// optionally with one uniform wire delay from the mean routed
// wirelength (see timingFromMapping).
func (r *flowRun) analyzeTiming(*obs.Span) (err error) {
	if r.Timing, err = timingFromMapping(r.Subject, r.Mapping, r.Routing, r.WireModel); err != nil {
		return err
	}
	r.CriticalDelay = r.Timing.MaxArrival
	return nil
}

// placementFromMapping builds the placement instance: one movable
// cell per emitted gate, boundary pads for the PIs and POs.
func placementFromMapping(nw *netlist.Network, subj *techmap.Subject, mp *techmap.Result) (*place.Problem, error) {
	cellOf := map[int]int{} // subject root id -> cell index
	for i, m := range mp.Matches {
		cellOf[m.Root] = i
	}
	n := len(mp.Matches)
	side := int(math.Ceil(math.Sqrt(float64(n) / flowUtilization)))
	if side < 2 {
		side = 2
	}
	prob := &place.Problem{NCells: n, W: float64(side), H: float64(side)}

	// Pads go round the boundary in input-then-output order; a name
	// listed twice keeps its first pad.
	padOf := map[string]int{}
	ios := append(append([]string(nil), nw.Inputs...), nw.Outputs...)
	for i, name := range ios {
		if _, ok := padOf[name]; ok {
			continue
		}
		t := float64(i) / float64(len(ios))
		var x, y float64
		switch i % 4 {
		case 0:
			x, y = t*prob.W, 0
		case 1:
			x, y = prob.W, t*prob.H
		case 2:
			x, y = (1-t)*prob.W, prob.H
		default:
			x, y = 0, (1-t)*prob.H
		}
		padOf[name] = len(prob.Pads)
		prob.Pads = append(prob.Pads, place.Pad{Name: name, X: x, Y: y})
	}

	// A net per driving subject node: driver gate or input leaf to
	// all consuming gates.
	consumers := map[int][]int{} // subject node id -> consuming cells
	for ci, m := range mp.Matches {
		for _, leaf := range m.Leaves {
			consumers[leaf] = append(consumers[leaf], ci)
		}
	}
	// Iterate driving nodes in sorted order: map-order iteration here
	// made net numbering — and hence routing, wirelength and DRC —
	// vary between identical runs, which breaks reproducible
	// telemetry snapshots.
	drivers := make([]int, 0, len(consumers))
	for node := range consumers {
		drivers = append(drivers, node)
	}
	sort.Ints(drivers)
	for _, node := range drivers {
		// Consumers were appended in cell order, so duplicates (a gate
		// reading one signal twice) are adjacent.
		net := place.Net{Cells: slices.Compact(consumers[node])}
		if dc, ok := cellOf[node]; ok {
			if !slices.Contains(net.Cells, dc) {
				net.Cells = append(net.Cells, dc)
			}
		} else {
			// Leaf is a primary input (or constant): pad if known.
			name := subj.Nodes[node].Name
			if id, ok := padOf[name]; ok {
				net.Pads = append(net.Pads, id)
			}
		}
		if len(net.Cells)+len(net.Pads) >= 2 {
			prob.Nets = append(prob.Nets, net)
		}
	}
	// Output pads connect to their driving gates.
	for _, out := range nw.Outputs {
		root, ok := subj.Roots[out]
		if !ok {
			continue
		}
		if c, ok := cellOf[root]; ok {
			prob.Nets = append(prob.Nets, place.Net{Cells: []int{c}, Pads: []int{padOf[out]}})
		}
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return prob, nil
}

// routingFromPlacement derives two-pin routing requests from the
// placement (each placement net connects its extreme pins).
func routingFromPlacement(prob *place.Problem, pl *place.Placement) (*route.Grid, []route.Net) {
	const scale = flowRouteScale
	g := route.NewGrid(int(prob.W)*scale+2, int(prob.H)*scale+2, route.DefaultCost())
	used := map[route.Point]bool{}
	pin := func(x, y float64) (route.Point, bool) {
		base := route.Point{X: int(x * float64(scale)), Y: int(y * float64(scale)), L: 0}
		for dy := 0; dy < scale; dy++ {
			for dx := 0; dx < scale; dx++ {
				p := route.Point{X: base.X + dx, Y: base.Y + dy, L: 0}
				if g.In(p) && !used[p] {
					used[p] = true
					return p, true
				}
			}
		}
		return route.Point{}, false
	}
	var nets []route.Net
	for ni, n := range prob.Nets {
		type pt struct{ x, y float64 }
		var pts []pt
		for _, c := range n.Cells {
			pts = append(pts, pt{pl.X[c], pl.Y[c]})
		}
		for _, pd := range n.Pads {
			x, y := prob.Pads[pd].X, prob.Pads[pd].Y
			// Clamp pad coordinates inside the grid.
			if x >= prob.W {
				x = prob.W - 0.5
			}
			if y >= prob.H {
				y = prob.H - 0.5
			}
			pts = append(pts, pt{x, y})
		}
		if len(pts) < 2 {
			continue
		}
		a, okA := pin(pts[0].x, pts[0].y)
		b, okB := pin(pts[len(pts)-1].x, pts[len(pts)-1].y)
		if !okA || !okB || a == b {
			continue
		}
		nets = append(nets, route.Net{Name: fmt.Sprintf("n%d", ni), A: a, B: b})
	}
	return g, nets
}

// timingFromMapping builds the gate-level timing graph. When
// wireModel is set it adds the same wire delay to every gate: the
// Elmore sink delay of one uniform RC line as long as the mean routed
// wirelength, not a per-net delay (ROADMAP direction 2 plans one).
func timingFromMapping(subj *techmap.Subject, mp *techmap.Result, routing *route.Result, wireModel bool) (*timing.Report, error) {
	delayOf := map[string]float64{}
	for _, g := range techmap.StandardLibrary() {
		delayOf[g.Name] = g.Delay
	}
	sigName := func(id int) string {
		n := subj.Nodes[id]
		if n.Kind == techmap.KInput {
			return n.Name
		}
		return fmt.Sprintf("n%d", id)
	}
	// One wire delay for all gates: a uniform RC line at the mean
	// routed wirelength.
	wireDelay := 0.0
	if wireModel && routing != nil && len(routing.Paths) > 0 {
		total := 0
		for _, p := range routing.Paths {
			total += p.Wirelength()
		}
		avg := float64(total) / float64(len(routing.Paths))
		t := timing.WireRC(1.0, 0.05, 0.1, int(avg)+1, 4, 0.2)
		d, err := t.SinkDelay()
		if err != nil {
			return nil, err
		}
		wireDelay = d
	}
	g := &timing.Graph{
		PIArrival:  map[string]float64{},
		PORequired: map[string]float64{},
	}
	for _, in := range subj.InputNames() {
		g.PIArrival[in] = 0
	}
	for _, m := range mp.Matches {
		var ins []string
		for _, leaf := range m.Leaves {
			ins = append(ins, sigName(leaf))
		}
		g.Gates = append(g.Gates, timing.Gate{
			Name:   fmt.Sprintf("%s_%d", m.Gate, m.Root),
			Output: sigName(m.Root),
			Inputs: ins,
			Delay:  delayOf[m.Gate] + wireDelay,
		})
	}
	// Outputs: signals of the mapped roots. Required times are set to
	// the worst arrival (two-pass), so the critical path reads slack 0
	// — the course's reporting convention when no clock is given.
	for _, root := range subj.Roots {
		sig := sigName(root)
		if _, isPI := g.PIArrival[sig]; isPI {
			continue // output is a feedthrough of an input
		}
		g.PORequired[sig] = 1e9
	}
	if len(g.PORequired) == 0 {
		return &timing.Report{Signals: map[string]timing.SignalTiming{}}, nil
	}
	first, err := timing.Analyze(g)
	if err != nil {
		return nil, err
	}
	for sig := range g.PORequired {
		g.PORequired[sig] = first.MaxArrival
	}
	return timing.Analyze(g)
}
