package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runKBDD(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestKBDDStdinScript(t *testing.T) {
	code, out, errb := runKBDD(t, "var a b c\nf = a & b | c\nsatcount f\n")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errb)
	}
	if !strings.Contains(out, "satcount(f) = 5") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestKBDDFileArg(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kbdd")
	if err := os.WriteFile(path, []byte("var x\ntautology x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runKBDD(t, "", path)
	if code != 0 || !strings.Contains(out, "false") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestKBDDErrors(t *testing.T) {
	// A bad line aborts with exit 1 but earlier output is still printed.
	code, out, errb := runKBDD(t, "var a\nprint a\nbogus command here\n")
	if code != 1 {
		t.Fatalf("code=%d, want 1", code)
	}
	if !strings.Contains(out, "a") {
		t.Fatalf("out=%q stderr=%q", out, errb)
	}
	if want := "kbdd: line 3: unknown command \"bogus\"\n"; errb != want {
		t.Fatalf("stderr = %q, want %q", errb, want)
	}
	if code, _, _ := runKBDD(t, "", filepath.Join(t.TempDir(), "missing.kbdd")); code != 1 {
		t.Errorf("missing file: code=%d, want 1", code)
	}
}
