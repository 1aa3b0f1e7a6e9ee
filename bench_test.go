package vlsicad

// One benchmark per figure of the paper (see DESIGN.md §3 and
// EXPERIMENTS.md). Each bench regenerates the figure's data from the
// corresponding modules and reports the headline numbers as benchmark
// metrics so `go test -bench` reproduces the paper's rows; run with
// -v for the full series.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vlsicad/internal/bench"
	"vlsicad/internal/cube"
	"vlsicad/internal/grader"
	"vlsicad/internal/mooc"
	"vlsicad/internal/netlist"
	"vlsicad/internal/place"
	"vlsicad/internal/portal"
	"vlsicad/internal/repair"
	"vlsicad/internal/route"
)

// BenchmarkFig1ConceptMap regenerates the 102-concept / 948-slide
// concept map with the Figure 1 BDD snapshot.
func BenchmarkFig1ConceptMap(b *testing.B) {
	var concepts, slides int
	for i := 0; i < b.N; i++ {
		cm := mooc.ConceptMap()
		concepts, slides, _ = mooc.ConceptStats(cm)
	}
	b.ReportMetric(float64(concepts), "concepts")
	b.ReportMetric(float64(slides), "slides")
}

// BenchmarkFig2LectureCatalog regenerates the 69-video catalog:
// average 15 minutes, 17.25 hours, with the efficiency comparison.
func BenchmarkFig2LectureCatalog(b *testing.B) {
	var count int
	var hours, avg float64
	for i := 0; i < b.N; i++ {
		count, hours, avg = mooc.LectureStats(mooc.Lectures())
	}
	e := mooc.CourseEfficiency()
	b.ReportMetric(float64(count), "videos")
	b.ReportMetric(hours, "total_hours")
	b.ReportMetric(avg, "avg_minutes")
	b.ReportMetric(100*e.ContentFraction(), "content_pct")
	b.ReportMetric(100*e.TimeFraction(), "time_pct")
}

// BenchmarkFig4ToolPortal exercises the Figure 4 architecture: one
// text job through each of the five deployed tools.
func BenchmarkFig4ToolPortal(b *testing.B) {
	jobs := []struct{ tool, input string }{
		{"kbdd", "var a b c\nf = a&b|c\nsatcount f\n"},
		{"espresso", ".i 3\n.o 1\n111 1\n110 1\n101 1\n011 1\n.e\n"},
		{"minisat", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"},
		{"sis", ".model m\n.inputs a b c d\n.outputs x\n.names a b c d x\n11-- 1\n--11 1\n.end\nfx\nprint_stats\n"},
		{"axb", "2 cg\n2 -1\n-1 2\n1 1\n"},
	}
	for i := 0; i < b.N; i++ {
		p := portal.NewPool(portal.PoolConfig{Timeout: 5 * time.Second})
		if err := portal.CourseTools(p); err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			res, err := p.Submit("bench", j.tool, j.input)
			if err != nil || res.Err != "" {
				b.Fatalf("%s: %v %s", j.tool, err, res.Err)
			}
		}
		p.Close()
	}
	b.ReportMetric(float64(len(jobs)), "tools")
}

// BenchmarkFig5Projects runs all four software projects at course
// scale: URP complement, BDD network repair, quadratic placement and
// maze routing.
func BenchmarkFig5Projects(b *testing.B) {
	spec, err := netlist.ParseBLIF(strings.NewReader(`
.model s
.inputs a b c
.outputs z
.names a b t
11 1
.names t c z
1- 1
-1 1
.end
`))
	if err != nil {
		b.Fatal(err)
	}
	on, _ := cube.ParseCover([]string{"11--", "--11", "0-0-"})
	c := bench.Suite()[0]
	prob := bench.Placement(c, 1)

	for i := 0; i < b.N; i++ {
		// Project 1: URP complement.
		comp := on.Complement()
		if comp.IsEmpty() {
			b.Fatal("bad complement")
		}
		// Project 2: repair an injected fault.
		impl := spec.Clone()
		if err := repair.InjectFault(impl, "t"); err != nil {
			b.Fatal(err)
		}
		res, err := repair.Repair(impl, spec, "t")
		if err != nil || !res.Repaired {
			b.Fatal("repair failed")
		}
		// Project 3: quadratic placement.
		pl, err := place.Quadratic(prob, place.QuadraticOpts{})
		if err != nil {
			b.Fatal(err)
		}
		leg, err := place.Legalize(prob, pl)
		if err != nil {
			b.Fatal(err)
		}
		// Project 4: route the placed design.
		g, nets := bench.Routing(c, leg, prob, 1, 0.02)
		rres := route.RouteAll(g, nets, route.Opts{Alg: route.AStar, Order: route.OrderShortFirst})
		if len(rres.Paths) == 0 {
			b.Fatal("routing failed entirely")
		}
	}
}

// BenchmarkFig6RouterUnitTests runs the Figure 6 unit-test battery on
// the reference router.
func BenchmarkFig6RouterUnitTests(b *testing.B) {
	var score float64
	for i := 0; i < b.N; i++ {
		rep := grader.RunRouterBattery(grader.ReferenceRouter)
		score = rep.Score()
	}
	b.ReportMetric(100*score, "score_pct")
}

// BenchmarkFig7ExtraCredit reproduces the extra-credit experience:
// place and route an MCNC-scale benchmark end to end and report
// wirelength and completion rate.
func BenchmarkFig7ExtraCredit(b *testing.B) {
	c := bench.Suite()[0] // fract
	p := bench.Placement(c, 3)
	var hpwl, completion float64
	var wl int
	for i := 0; i < b.N; i++ {
		pl, err := place.Quadratic(p, place.QuadraticOpts{})
		if err != nil {
			b.Fatal(err)
		}
		leg, err := place.Legalize(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		hpwl = p.HPWL(leg)
		g, nets := bench.Routing(c, leg, p, 3, 0.02)
		res := route.RouteAll(g, nets, route.Opts{
			Alg: route.AStar, Order: route.OrderShortFirst, RipupRounds: 5, Seed: 3,
		})
		completion = float64(len(res.Paths)) / float64(len(nets))
		wl = res.Length
	}
	b.ReportMetric(hpwl, "hpwl")
	b.ReportMetric(100*completion, "completion_pct")
	b.ReportMetric(float64(wl), "wirelength")
}

// BenchmarkFig8Funnel regenerates the participation funnel.
func BenchmarkFig8Funnel(b *testing.B) {
	var f mooc.Funnel
	for i := 0; i < b.N; i++ {
		f = mooc.Simulate(mooc.PaperParams(), int64(i)+1).Funnel()
	}
	b.ReportMetric(float64(f.Registered), "registered")
	b.ReportMetric(float64(f.WatchedVideo), "watched")
	b.ReportMetric(float64(f.DidHomework), "homework")
	b.ReportMetric(float64(f.TriedSoftware), "software")
	b.ReportMetric(float64(f.TookFinal), "final")
	b.ReportMetric(float64(f.Certificates), "certs")
}

// BenchmarkFig9Viewership regenerates the per-lecture viewer series
// and reports the paper's three landmarks.
func BenchmarkFig9Viewership(b *testing.B) {
	var v []int
	for i := 0; i < b.N; i++ {
		v = mooc.Simulate(mooc.PaperParams(), int64(i)+1).Viewership()
	}
	b.ReportMetric(float64(v[0]), "intro_viewers")
	b.ReportMetric(float64(v[19]), "midcourse_viewers")
	b.ReportMetric(float64(v[68]), "final_viewers")
	if b.N > 0 {
		b.Logf("series: %v", v)
	}
}

// BenchmarkFig10Demographics regenerates the demographic summary.
func BenchmarkFig10Demographics(b *testing.B) {
	var d mooc.Demographics
	for i := 0; i < b.N; i++ {
		d = mooc.Simulate(mooc.PaperParams(), int64(i)+1).Demographics()
	}
	b.ReportMetric(d.AvgAge, "avg_age")
	b.ReportMetric(100*d.FemaleShare, "female_pct")
	b.ReportMetric(100*d.BSShare, "bs_pct")
	b.ReportMetric(100*d.MSPhDShare, "msphd_pct")
	b.Logf("top countries: %v", d.TopCountries[:10])
}

// BenchmarkFig11Survey regenerates the word cloud.
func BenchmarkFig11Survey(b *testing.B) {
	var wc []mooc.WordCount
	for i := 0; i < b.N; i++ {
		wc = mooc.MineWordCloud(mooc.SurveyResponses(1000, int64(i)+1))
	}
	b.ReportMetric(float64(len(wc)), "distinct_words")
	top := wc
	if len(top) > 10 {
		top = top[:10]
	}
	b.Logf("top words: %v", top)
}

// BenchmarkFullFlow measures the complete logic-to-layout flow on the
// quickstart adder (the §5 "on ramp" demonstration).
func BenchmarkFullFlow(b *testing.B) {
	const adder = `
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`
	for i := 0; i < b.N; i++ {
		if _, err := RunFlow(strings.NewReader(adder), FlowOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteFlowQuadratic routes the stub nets of the 12 fixed
// seed-1 designs of moocbench's flow-quadratic workload (quadratic
// placement, the designs' first and last pins), with the flow's router
// options. The placements are made once; every iteration routes all
// 12 on fresh grids. About one net in twelve fails on these
// placements, and the instances keep those failures whatever the
// flow's placement becomes.
func BenchmarkRouteFlowQuadratic(b *testing.B) {
	const seed = 1
	type instance struct {
		g    *route.Grid
		nets []route.Net
	}
	var insts []instance
	for i := 0; i < 12; i++ {
		nw := bench.Network(bench.NetworkSpec{Name: fmt.Sprintf("design-%d", i), Inputs: 16,
			Nodes: []int{40, 50, 60}[i%3], Outputs: 8}, seed*1_000_003+int64(i))
		f, err := RunFlowOnNetwork(nw, FlowOpts{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		g, nets := routingFromPlacement(f.PlaceProblem, f.Placement)
		insts = append(insts, instance{g, nets})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var expanded, failed int
	for i := 0; i < b.N; i++ {
		expanded, failed = 0, 0
		for _, in := range insts {
			res := route.RouteAll(in.g.Clone(), in.nets, flowRouteOpts(seed))
			expanded += res.Expanded
			failed += len(res.Failed)
		}
	}
	b.ReportMetric(float64(expanded), "expanded")
	b.ReportMetric(float64(failed), "failed")
}
