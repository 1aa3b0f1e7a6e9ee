package cube

import (
	"math/rand"
	"testing"
)

func TestPrimesTextbook(t *testing.T) {
	// f = ab + a'c: primes are ab, a'c and the consensus bc.
	f := mustCover(t, "11-", "0-1")
	primes := f.Primes()
	if len(primes.Cubes) != 3 {
		t.Fatalf("primes = %v, want 3 cubes", primes)
	}
	want := mustCover(t, "11-", "0-1", "-11")
	for _, c := range want.Cubes {
		found := false
		for _, p := range primes.Cubes {
			if p.Contains(c) && c.Contains(p) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing prime %v", c)
		}
	}
	if !Equal(primes, f) {
		t.Error("prime cover changed the function")
	}
}

func TestPrimesAllPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		f := randomCover(rng, n, 1+rng.Intn(5))
		if f.IsEmpty() {
			continue
		}
		primes := f.Primes()
		if !Equal(primes, f) {
			t.Fatalf("iter %d: function changed", iter)
		}
		for _, c := range primes.Cubes {
			if !isPrime(f, c) {
				t.Fatalf("iter %d: cube %v in Primes() is not prime\nf=%v", iter, c, f)
			}
		}
	}
}

func TestIsPrime(t *testing.T) {
	// isPrime is the oracle of TestPrimesAllPrime: it must reject
	// non-prime implicants and non-implicants.
	f := mustCover(t, "11-", "0-1")
	ab, _ := ParseCube("11-")
	abc, _ := ParseCube("111")
	bd, _ := ParseCube("--0")
	if !isPrime(f, ab) {
		t.Error("ab should be prime")
	}
	if isPrime(f, abc) {
		t.Error("abc is an implicant but not prime")
	}
	if isPrime(f, bd) {
		t.Error("c' is not even an implicant")
	}
}

func TestPrimesOfTautology(t *testing.T) {
	f := mustCover(t, "1-", "0-")
	primes := f.Primes()
	if len(primes.Cubes) != 1 || !primes.Cubes[0].IsUniversal() {
		t.Errorf("primes of tautology = %v, want the universal cube", primes)
	}
}

// isPrime reports whether c is a prime implicant of f: c implies f
// and no literal of c can be raised without leaving f.
func isPrime(f *Cover, c Cube) bool {
	single := &Cover{N: f.N, Cubes: []Cube{c.Clone()}}
	if !f.Covers(single) {
		return false
	}
	for v := 0; v < f.N; v++ {
		if c[v] == DC {
			continue
		}
		raised := c.Clone()
		raised[v] = DC
		if f.Covers(&Cover{N: f.N, Cubes: []Cube{raised}}) {
			return false // could be raised: not prime
		}
	}
	return true
}
