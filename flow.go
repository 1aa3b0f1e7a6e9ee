// Package vlsicad is the public facade of the VLSI CAD: Logic to
// Layout reproduction: a complete ASIC flow — multi-level synthesis,
// formal verification, technology mapping, placement, routing and
// static timing — assembled from the course's engines under
// internal/. The facade is what the examples and command-line tools
// drive; each stage is also available individually through its
// package.
package vlsicad

import (
	"fmt"
	"io"
	"math"
	"runtime"
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
	// MapObjective selects area (default) or delay mapping.
	MapObjective techmap.Objective
	// Seed drives the randomized stages (routing rip-up order).
	Seed int64
	// RouteWorkers sets the routing stage's worker count: 0 means
	// GOMAXPROCS, 1 forces the serial engine. The routed Result is
	// byte-identical for every value — parallelism changes only wall
	// clock, never the answer.
	RouteWorkers int
	// AnnealPlace refines the legalized placement with simulated
	// annealing (place.Anneal, incremental cost, parallel chains). The
	// refinement is kept only when it improves HPWL, so enabling it
	// never worsens the layout.
	AnnealPlace bool
	// PlaceWorkers bounds the placement stage's concurrency — the
	// quadratic placer's per-level region solves and the annealing
	// chains: 0 means GOMAXPROCS. Like RouteWorkers it changes only
	// wall clock; the placement is byte-identical for every value.
	PlaceWorkers int
	// WireModel enables Elmore wire delays in timing (per routed net).
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
func RunFlow(r io.Reader, opts FlowOpts) (*Flow, error) {
	if opts.Obs == nil {
		opts.Obs = obs.Default()
	}
	ob := opts.Obs
	sp := ob.StartSpan("flow.parse")
	nw, err := netlist.ParseBLIF(r)
	d := sp.End()
	ob.HistogramVec("flow_stage_seconds", []string{"stage"}).With("parse").ObserveDuration(d)
	if err != nil {
		ob.CounterVec("flow_stage_errors_total", "stage").With("parse").Inc()
		return nil, err
	}
	f, ferr := RunFlowOnNetwork(nw, opts)
	if f != nil {
		f.Stages = append([]StageTiming{{Name: "parse", Duration: d}}, f.Stages...)
	}
	return f, ferr
}

// RunFlowOnNetwork is RunFlow starting from an in-memory network.
// Each stage runs inside a child span of one "flow" root span and
// feeds a per-stage latency histogram; the finished spans land in
// Flow.Trace and the timing table in Flow.Stages.
func RunFlowOnNetwork(nw *netlist.Network, opts FlowOpts) (*Flow, error) {
	ob := opts.Obs
	if ob == nil {
		ob = obs.Default()
	}
	f := &Flow{Source: nw.Clone(), LiteralsBefore: nw.Literals()}

	root := ob.StartSpan("flow")
	root.SetLabel("model", nw.Name)
	stageSeconds := ob.HistogramVec("flow_stage_seconds", []string{"stage"})
	stageErrors := ob.CounterVec("flow_stage_errors_total", "stage")
	// endStage closes a stage span and records its timing-table row.
	endStage := func(sp *obs.Span, name string, err error) {
		d := sp.End()
		f.Stages = append(f.Stages, StageTiming{Name: name, Duration: d})
		stageSeconds.With(name).ObserveDuration(d)
		if err != nil {
			stageErrors.With(name).Inc()
		}
	}
	// finish closes the root span, attaches the trace, and counts the
	// run; every return path goes through it.
	finish := func(ret *Flow, err error) (*Flow, error) {
		root.SetLabel("ok", strconv.FormatBool(err == nil))
		root.End()
		f.Trace = ob.Tracer().SnapshotSince(root.ID())
		ob.Counter("flow_runs_total").Inc()
		if err != nil {
			ob.Counter("flow_runs_failed").Inc()
		}
		return ret, err
	}

	// 1. Synthesis (Weeks 3-4): extract common divisors, simplify,
	// sweep; verify with BDD equivalence (Week 2).
	sp := root.StartChild("flow.synth")
	work := nw.Clone()
	mls.ExtractKernels(work, "fx_", 10)
	mls.Simplify(work)
	mls.SweepConstants(work)
	f.Synthesized = work
	f.LiteralsAfter = work.Literals()
	endStage(sp, "synth", nil)

	sp = root.StartChild("flow.verify")
	eq, eqErr := netlist.EquivalentBDD(nw, work)
	f.Equivalent = eq
	var verr error
	switch {
	case eqErr != nil:
		verr = fmt.Errorf("vlsicad: synthesis verification: %w", eqErr)
	case !eq:
		verr = fmt.Errorf("vlsicad: synthesis changed the function")
	}
	endStage(sp, "verify", verr)
	if eqErr != nil {
		return finish(nil, verr)
	}
	if !eq {
		return finish(f, verr)
	}

	// 2. Technology mapping (Week 5).
	sp = root.StartChild("flow.map")
	subj, err := techmap.FromNetwork(work)
	if err != nil {
		endStage(sp, "map", err)
		return finish(nil, err)
	}
	f.Subject = subj
	mapping, err := techmap.Map(subj, techmap.StandardLibrary(), opts.MapObjective)
	if err != nil {
		endStage(sp, "map", err)
		return finish(nil, err)
	}
	f.Mapping = mapping
	f.Area = mapping.Area
	if opts.VerifyMapping {
		mapped, err := techmap.ToNetwork(subj, mapping, techmap.StandardLibrary(),
			work.Name+"_mapped", work.Inputs, work.Outputs)
		if err != nil {
			endStage(sp, "map", err)
			return finish(nil, fmt.Errorf("vlsicad: mapped-netlist export: %w", err))
		}
		eqM, err := netlist.EquivalentBDD(work, mapped)
		if err != nil {
			endStage(sp, "map", err)
			return finish(nil, fmt.Errorf("vlsicad: mapping verification: %w", err))
		}
		if !eqM {
			err = fmt.Errorf("vlsicad: technology mapping changed the function")
			endStage(sp, "map", err)
			return finish(f, err)
		}
	}
	endStage(sp, "map", nil)

	// 3. Placement (Week 6): one cell per mapped gate; nets from the
	// gate-level connectivity; pads for the primary inputs/outputs.
	sp = root.StartChild("flow.place")
	prob, cellOf, err := placementFromMapping(work, subj, mapping, flowUtilization)
	if err != nil {
		endStage(sp, "place", err)
		return finish(nil, err)
	}
	f.PlaceProblem = prob
	// Level telemetry mirrors the route stage's wave idiom: one labeled
	// family (flow_quad_events_total{kind}) plus a child span per
	// bipartition level. OnLevel fires in level order on this
	// goroutine, so the series and spans are deterministic for any
	// PlaceWorkers value.
	quadEvents := ob.CounterVec("flow_quad_events_total", "kind")
	quadRegions, quadLeaves, quadIters :=
		quadEvents.With("regions"), quadEvents.With("leaves"), quadEvents.With("cg_iterations")
	global, err := place.Quadratic(prob, place.QuadraticOpts{
		Workers: opts.PlaceWorkers,
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
		endStage(sp, "place", err)
		return finish(nil, err)
	}
	legal, err := place.Legalize(prob, global)
	if err != nil {
		endStage(sp, "place", err)
		return finish(nil, err)
	}
	if err := place.CheckLegal(prob, legal); err != nil {
		endStage(sp, "place", err)
		return finish(nil, fmt.Errorf("vlsicad: legalization: %w", err))
	}
	f.Placement = legal
	f.HPWL = prob.HPWL(legal)
	if opts.AnnealPlace {
		// Chain telemetry mirrors the route stage's wave idiom: one
		// labeled family (flow_place_chain_events_total{kind}) plus a
		// child span per chain. OnChain fires in chain order after all
		// chains finish, so the series and spans are deterministic for
		// any PlaceWorkers value.
		chainEvents := ob.CounterVec("flow_place_chain_events_total", "kind")
		moves, accepted, recomputes :=
			chainEvents.With("moves"), chainEvents.With("accepted"), chainEvents.With("recomputes")
		res, aerr := place.Anneal(prob, place.AnnealOpts{
			Seed:    opts.Seed,
			Chains:  flowPlaceChains,
			Workers: opts.PlaceWorkers,
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
		if aerr != nil {
			endStage(sp, "place", aerr)
			return finish(nil, fmt.Errorf("vlsicad: annealing: %w", aerr))
		}
		if res.HPWL < f.HPWL {
			legal = res.Placement
			f.Placement = legal
			f.HPWL = res.HPWL
		}
		ob.Gauge("flow_place_anneal_hpwl").Set(res.HPWL)
	}
	endStage(sp, "place", nil)

	// 4. Routing (Week 7): wave-parallel net routing on a bounded
	// worker pool. Per-wave telemetry lands in child spans and
	// counters; the Result itself is worker-count independent.
	sp = root.StartChild("flow.route")
	grid, nets := routingFromPlacement(prob, legal, flowRouteScale, opts.Seed)
	f.Grid = grid
	f.Nets = nets
	workers := opts.RouteWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Wave telemetry: one labeled family instead of three flat
	// counters, so a scrape shows committed/conflict/requeue rates as
	// comparable series of flow_route_wave_events_total{kind}.
	waveEvents := ob.CounterVec("flow_route_wave_events_total", "kind")
	committed, conflicts, requeued :=
		waveEvents.With("committed"), waveEvents.With("conflict"), waveEvents.With("requeued")
	f.Routing = route.RouteAll(grid, nets, route.Opts{
		Alg:         route.AStar,
		Order:       route.OrderShortFirst,
		RipupRounds: 5,
		Seed:        opts.Seed,
		Workers:     workers,
		OnWave: func(ws route.WaveStats) {
			wsp := sp.StartChild("flow.route.wave")
			wsp.SetLabel("wave", strconv.Itoa(ws.Index))
			wsp.SetLabel("nets", strconv.Itoa(ws.Nets))
			wsp.SetLabel("committed", strconv.Itoa(ws.Committed))
			wsp.SetLabel("conflicts", strconv.Itoa(ws.Conflicts))
			wsp.SetLabel("requeued", strconv.Itoa(ws.Requeued))
			committed.Add(int64(ws.Committed))
			conflicts.Add(int64(ws.Conflicts))
			requeued.Add(int64(ws.Requeued))
			wsp.End()
		},
	})
	f.WireLength = f.Routing.Length
	f.Vias = f.Routing.Vias
	endStage(sp, "route", nil)
	if opts.CheckDRC {
		sp = root.StartChild("flow.drc")
		// Pitch 6 with half-pitch wires keeps legally routed tracks
		// clean under the default 2-unit rules.
		shapes := drc.WiresToShapes(f.Routing.Paths, 6)
		f.DRC = drc.Check(shapes, drc.DefaultRules())
		endStage(sp, "drc", nil)
		ob.Counter("flow_drc_violations").Add(int64(len(f.DRC)))
		if len(f.DRC) > 0 {
			ob.Emit("flow.drc_violations", map[string]string{
				"model": nw.Name, "count": strconv.Itoa(len(f.DRC)),
			})
		}
	}

	// 5. Static timing (Week 8) over the mapped gates, optionally with
	// Elmore wire delays from the routed wirelengths.
	sp = root.StartChild("flow.timing")
	rep, err := timingFromMapping(work, subj, mapping, f, cellOf, opts.WireModel)
	endStage(sp, "timing", err)
	if err != nil {
		return finish(nil, err)
	}
	f.Timing = rep
	f.CriticalDelay = rep.MaxArrival

	// Result gauges: the most recent run's quality-of-results.
	ob.Gauge("flow_area").Set(f.Area)
	ob.Gauge("flow_hpwl").Set(f.HPWL)
	ob.Gauge("flow_wirelength").Set(float64(f.WireLength))
	ob.Gauge("flow_critical_delay").Set(f.CriticalDelay)
	return finish(f, nil)
}

// placementFromMapping builds the placement instance: one movable
// cell per emitted gate, boundary pads for the PIs and POs.
func placementFromMapping(nw *netlist.Network, subj *techmap.Subject, mp *techmap.Result, util float64) (*place.Problem, map[int]int, error) {
	cellOf := map[int]int{} // subject root id -> cell index
	for i, m := range mp.Matches {
		cellOf[m.Root] = i
	}
	n := len(mp.Matches)
	side := int(math.Ceil(math.Sqrt(float64(n) / util)))
	if side < 2 {
		side = 2
	}
	prob := &place.Problem{NCells: n, W: float64(side), H: float64(side)}

	padOf := map[string]int{}
	addPad := func(name string, i, total int) int {
		if id, ok := padOf[name]; ok {
			return id
		}
		t := float64(i) / float64(total)
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
		id := len(prob.Pads)
		prob.Pads = append(prob.Pads, place.Pad{Name: name, X: x, Y: y})
		padOf[name] = id
		return id
	}
	ios := append([]string(nil), nw.Inputs...)
	ios = append(ios, nw.Outputs...)
	for i, name := range ios {
		addPad(name, i, len(ios))
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
		cons := consumers[node]
		net := place.Net{}
		seen := map[int]bool{}
		for _, c := range cons {
			if !seen[c] {
				net.Cells = append(net.Cells, c)
				seen[c] = true
			}
		}
		if dc, ok := cellOf[node]; ok {
			if !seen[dc] {
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
		return nil, nil, err
	}
	return prob, cellOf, nil
}

// routingFromPlacement derives two-pin routing requests from the
// placement (each placement net connects its extreme pins).
func routingFromPlacement(prob *place.Problem, pl *place.Placement, scale int, seed int64) (*route.Grid, []route.Net) {
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
			x := prob.Pads[pd].X
			y := prob.Pads[pd].Y
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

// timingFromMapping builds the gate-level timing graph, adding Elmore
// wire delays per routed net when wireModel is set.
func timingFromMapping(nw *netlist.Network, subj *techmap.Subject, mp *techmap.Result, f *Flow, cellOf map[int]int, wireModel bool) (*timing.Report, error) {
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
	// Per-net wire delay from routed wirelength (uniform RC line).
	wireDelay := 0.0
	if wireModel && f.Routing != nil && len(f.Routing.Paths) > 0 {
		total := 0
		for _, p := range f.Routing.Paths {
			total += p.Wirelength()
		}
		avg := float64(total) / float64(len(f.Routing.Paths))
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
