package main

import (
	"strings"
	"testing"
)

func runEspresso(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const majorityPLA = `.i 3
.o 1
111 1
110 1
101 1
011 1
.e
`

func TestEspressoMajority(t *testing.T) {
	code, out, errb := runEspresso(t, majorityPLA)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errb)
	}
	// Majority minimizes from 4 cubes to the 3 two-literal cubes.
	if !strings.Contains(out, "4 -> 3 cubes") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestEspressoErrors(t *testing.T) {
	if code, _, errb := runEspresso(t, "garbage"); code != 1 || errb != "espresso: cube row before .i/.o\n" {
		t.Errorf("garbage input: code=%d stderr=%q", code, errb)
	}
}
