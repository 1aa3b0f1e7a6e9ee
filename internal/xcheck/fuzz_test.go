package xcheck

import "testing"

// The fuzz targets drive the cross-engine oracles from a single
// fuzzed seed: the generators turn the seed into a structured
// instance, so the fuzzer explores instance space without needing a
// structured corpus format. Seed corpus entries mirror the golden
// corpus (same DeriveSeed stream) plus the first repro the harness
// ever caught.

// seedCorpus adds the golden corpus seeds of one domain.
func seedCorpus(f *testing.F, domain string) {
	f.Helper()
	for _, d := range DefaultSpec() {
		if d.Name != domain {
			continue
		}
		for i := 0; i < d.Count; i++ {
			f.Add(DeriveSeed(CorpusMasterSeed, domain, i))
		}
	}
}

func FuzzCoverMinimize(f *testing.F) {
	seedCorpus(f, "cover")
	f.Add(uint64(1007)) // xcheck: repro seed=1007 (parallel-REDUCE bug)
	c := &Checker{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, m := range c.CheckCover(GenCover(seed)) {
			t.Errorf("%v", m)
		}
	})
}

func FuzzSATvsBDD(f *testing.F) {
	seedCorpus(f, "cnf")
	c := &Checker{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, m := range c.CheckCNF(GenCNF(seed)) {
			t.Errorf("%v", m)
		}
	})
}

func FuzzRoute(f *testing.F) {
	seedCorpus(f, "route")
	c := &Checker{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, m := range c.CheckRoute(GenRoute(seed)) {
			t.Errorf("%v", m)
		}
	})
}

// ripupHeavySeeds are GenPRoute seeds whose instances give the
// rip-up rounds the most work: the most nets that fail the first pass
// and are then recovered (found by sweeping seeds 0..2999; 8 to 10
// nets recovered each). They pin the kept and reverted rip-up
// attempts into the fuzz seed corpus.
var ripupHeavySeeds = []uint64{1685, 1768, 268, 858, 2314, 2610, 348, 2473}

// pannealHotSeeds are GenPAnneal seeds whose instances churn the
// incremental evaluator hardest (found by sweeping seeds 0..2999 and
// ranking by accepted moves + boundary-fallback recomputes). They pin
// the cache-update and exact-rescan paths into both the fuzz seed
// corpus and TestPAnnealHotSeeds.
var pannealHotSeeds = []uint64{1209, 349, 2662, 1226, 787, 609, 2362, 2250}

func FuzzPAnneal(f *testing.F) {
	seedCorpus(f, "panneal")
	for _, seed := range pannealHotSeeds {
		f.Add(seed)
	}
	c := &Checker{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, m := range c.CheckPAnneal(GenPAnneal(seed)) {
			t.Errorf("%v", m)
		}
	})
}

func FuzzPRoute(f *testing.F) {
	seedCorpus(f, "proute")
	// Rip-up-heavy instances, pinned so every fuzz run exercises the
	// rip-up rounds even before exploration.
	for _, seed := range ripupHeavySeeds {
		f.Add(seed)
	}
	c := &Checker{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, m := range c.CheckPRoute(GenPRoute(seed)) {
			t.Errorf("%v", m)
		}
	})
}
