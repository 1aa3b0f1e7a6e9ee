package portal

import (
	"math/rand"
	"testing"
)

// Robustness: every tool portal must turn arbitrary garbage input
// into an error result, never a panic — the cloud deployment's
// survival property with 17,000 strangers typing at it.

func TestToolsSurviveGarbage(t *testing.T) {
	p := newCoursePool(t)
	rng := rand.New(rand.NewSource(55))
	alphabet := []byte("p cnf .io10-\\\nvar=&|^~()x abce")
	for _, tool := range p.Tools() {
		for iter := 0; iter < 100; iter++ {
			n := rng.Intn(120)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alphabet[rng.Intn(len(alphabet))]
			}
			res, err := p.Submit("fuzz", tool, string(buf))
			if err != nil {
				t.Fatalf("%s: Submit errored (should be recorded in result): %v", tool, err)
			}
			if res.TimedOut {
				t.Fatalf("%s: garbage input hung the tool: %q", tool, buf)
			}
		}
	}
}

func TestKBDDSurvivesGarbageScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	words := []string{"var", "print", "exists", "restrict", "compose", "dot",
		"a", "b", "f", "=", "&", "|", "^", "~", "(", ")", "0", "1", "zz"}
	for iter := 0; iter < 300; iter++ {
		script := ""
		for l := 0; l < 1+rng.Intn(6); l++ {
			for w := 0; w < 1+rng.Intn(6); w++ {
				script += words[rng.Intn(len(words))] + " "
			}
			script += "\n"
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iter %d: kbdd panicked on %q: %v", iter, script, r)
				}
			}()
			k := NewKBDD(16)
			_ = k.RunScript(script)
		}()
	}
}
