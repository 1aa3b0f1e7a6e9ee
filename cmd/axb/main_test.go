package main

import (
	"strings"
	"testing"
)

func TestAxbSolvesSystem(t *testing.T) {
	// 2x2 symmetric positive-definite system: x = (1, 1).
	var out, errb strings.Builder
	code := run(nil, strings.NewReader("2 dense\n2 -1\n-1 2\n1 1\n"), &out, &errb)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errb.String())
	}
	if !strings.Contains(out.String(), "x1 = 1") || !strings.Contains(out.String(), "x2 = 1") {
		t.Fatalf("output = %q, want x1 = 1 and x2 = 1", out.String())
	}
}

func TestAxbBadInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("not a system\n"), &out, &errb); code != 1 {
		t.Fatalf("code=%d, want 1 (stderr=%q)", code, errb.String())
	}
	// RunCLI names the tool once; the tool's own error does not.
	if got, want := errb.String(), "axb: bad dimension \"not\"\n"; got != want {
		t.Fatalf("stderr = %q, want %q", got, want)
	}
}

func TestAxbMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/nonexistent/axb-input"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Fatalf("code=%d, want 1", code)
	}
}
