package place

import "testing"

// Ablation: quadratic+bipartition vs simulated annealing vs random,
// on the same seeded instance (DESIGN.md §4).

func benchProblem() *Problem {
	return randomProblem(120, 240, 12, 12, 99)
}

func BenchmarkQuadraticPlace(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		pl, err := Quadratic(p, QuadraticOpts{})
		if err != nil {
			b.Fatal(err)
		}
		leg, err := Legalize(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		hpwl = p.HPWL(leg)
	}
	b.ReportMetric(hpwl, "hpwl")
}

func BenchmarkAnnealPlace(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		res, err := Anneal(p, AnnealOpts{Seed: 99})
		if err != nil {
			b.Fatal(err)
		}
		hpwl = res.HPWL
	}
	b.ReportMetric(hpwl, "hpwl")
}

// BenchmarkAnnealPlaceParallel: 4 chains spread over GOMAXPROCS
// workers — same answer as Chains:4 Workers:1, ~4x the serial work in
// roughly one chain's wall clock.
func BenchmarkAnnealPlaceParallel(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		res, err := Anneal(p, AnnealOpts{Seed: 99, Chains: 4})
		if err != nil {
			b.Fatal(err)
		}
		hpwl = res.HPWL
	}
	b.ReportMetric(hpwl, "hpwl")
}

// BenchmarkAnnealRefine: the flow's refinement mode — 4 chains on one
// worker from the legalized quadratic placement, default schedule.
func BenchmarkAnnealRefine(b *testing.B) {
	p, legal := refineProblem(b, 120, 240, 12, 12, 99)
	b.ReportAllocs()
	b.ResetTimer()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		res, err := Anneal(p, AnnealOpts{Seed: 99, Chains: 4, Workers: 1, Initial: legal})
		if err != nil {
			b.Fatal(err)
		}
		hpwl = res.HPWL
	}
	b.ReportMetric(hpwl, "hpwl")
}

func BenchmarkMinCutPlace(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		pl, err := MinCut(p, 99)
		if err != nil {
			b.Fatal(err)
		}
		leg, err := Legalize(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		hpwl = p.HPWL(leg)
	}
	b.ReportMetric(hpwl, "hpwl")
}

func BenchmarkRandomPlace(b *testing.B) {
	p := benchProblem()
	b.ReportAllocs()
	var hpwl float64
	for i := 0; i < b.N; i++ {
		hpwl = p.HPWL(Random(p, int64(i)))
	}
	b.ReportMetric(hpwl, "hpwl")
}
