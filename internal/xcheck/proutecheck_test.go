package xcheck

import (
	"strings"
	"testing"
)

// TestPRouteOracleOnCorpusSeeds runs the proute oracles over the golden-corpus seed stream (the same instances the corpus
// sweep replays, without needing the files on disk).
func TestPRouteOracleOnCorpusSeeds(t *testing.T) {
	c := &Checker{}
	for i := 0; i < 12; i++ {
		seed := DeriveSeed(CorpusMasterSeed, "proute", i)
		for _, m := range c.CheckPRoute(GenPRoute(seed)) {
			t.Errorf("%v", m)
		}
	}
}

// TestPRouteDumpDeterministic guards the corpus contract: same seed,
// byte-identical dump, and the dump self-identifies its format.
func TestPRouteDumpDeterministic(t *testing.T) {
	a, b := GenPRoute(42).Dump(), GenPRoute(42).Dump()
	if a != b {
		t.Fatal("GenPRoute(42) dumps differ between calls")
	}
	if !strings.HasPrefix(a, "xcheck proute v1\n") {
		t.Fatalf("dump header wrong: %q", a[:30])
	}
	if GenPRoute(43).Dump() == a {
		t.Fatal("distinct seeds produced identical instances")
	}
}
