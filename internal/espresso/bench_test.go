package espresso

import (
	"math/rand"
	"testing"

	"vlsicad/internal/cube"
)

// Quality-gap bench: the heuristic loop vs the exact QM baseline.

func randomOnSet(rng *rand.Rand, n int) *cube.Cover {
	var mins []uint
	for m := uint(0); m < 1<<uint(n); m++ {
		if rng.Intn(2) == 0 {
			mins = append(mins, m)
		}
	}
	if len(mins) == 0 {
		mins = []uint{0}
	}
	return cube.FromMinterms(n, mins)
}

// benchFuncs returns the 16 fixed 6-variable functions of the
// minimization benchmarks.
func benchFuncs() []*cube.Cover {
	rng := rand.New(rand.NewSource(5))
	funcs := make([]*cube.Cover, 16)
	for i := range funcs {
		funcs[i] = randomOnSet(rng, 6)
	}
	return funcs
}

func BenchmarkHeuristicMinimize(b *testing.B) {
	funcs := benchFuncs()
	// The mean cube count over the fixed functions, so the metric does
	// not depend on b.N.
	total := 0
	for _, f := range funcs {
		min, _ := Minimize(f, nil)
		total += len(min.Cubes)
	}
	cubes := float64(total) / float64(len(funcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Minimize(funcs[i%len(funcs)], nil)
	}
	b.ReportMetric(cubes, "cubes")
}

func BenchmarkExactMinimize(b *testing.B) {
	funcs := benchFuncs()
	total := 0
	for _, f := range funcs {
		min, err := MinimizeExact(f, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += len(min.Cubes)
	}
	cubes := float64(total) / float64(len(funcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeExact(funcs[i%len(funcs)], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cubes, "cubes")
}

// BenchmarkQualityGap reports the cube overhead of the heuristic over
// exact on a fixed sample of 20 functions, drawn once.
func BenchmarkQualityGap(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	funcs := make([]*cube.Cover, 20)
	for i := range funcs {
		funcs[i] = randomOnSet(rng, 5)
	}
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		heurTotal, exactTotal := 0, 0
		for _, on := range funcs {
			h, _ := Minimize(on, nil)
			e, err := MinimizeExact(on, nil)
			if err != nil {
				b.Fatal(err)
			}
			heurTotal += len(h.Cubes)
			exactTotal += len(e.Cubes)
		}
		gap = float64(heurTotal) / float64(exactTotal)
	}
	b.ReportMetric(gap, "heur_over_exact")
}
