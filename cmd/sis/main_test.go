package main

import (
	"strings"
	"testing"
)

const sisInput = `.model m
.inputs a b
.outputs x
.names a b x
11 1
.end
print_stats
`

func TestSISPrintsNetwork(t *testing.T) {
	var out, errb strings.Builder
	code := run(nil, strings.NewReader(sisInput), &out, &errb)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errb.String())
	}
	if !strings.Contains(out.String(), ".model") {
		t.Fatalf("output = %q, want BLIF network", out.String())
	}
}

func TestSISBadInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("garbage\n"), &out, &errb); code != 1 {
		t.Fatalf("code=%d, want 1 (stderr=%q)", code, errb.String())
	}
	if got, want := errb.String(), "sis: input must contain a BLIF model ending in .end\n"; got != want {
		t.Fatalf("stderr = %q, want %q", got, want)
	}
}
