package portal

import (
	"strings"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// newCoursePool serves the five course tools from a one-worker pool
// with a private observer, closed when the test ends.
func newCoursePool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(PoolConfig{Workers: 1, Timeout: 2 * time.Second, Observer: obs.NewObserver(nil)})
	t.Cleanup(p.Close)
	if err := CourseTools(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegisterAndList(t *testing.T) {
	p := newCoursePool(t)
	tools := p.Tools()
	want := []string{"axb", "espresso", "kbdd", "minisat", "sis"}
	if len(tools) != len(want) {
		t.Fatalf("tools = %v", tools)
	}
	for i := range want {
		if tools[i] != want[i] {
			t.Errorf("tools[%d] = %s, want %s", i, tools[i], want[i])
		}
	}
	if err := p.Register(KBDDTool()); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestUnknownTool(t *testing.T) {
	p := newCoursePool(t)
	if _, err := p.Submit("u", "vivado", "hi"); err == nil {
		t.Error("unknown tool should fail")
	}
}

func TestKBDDToolScript(t *testing.T) {
	p := newCoursePool(t)
	script := `
var a b c
f = a & b | c
g = c | b & a
equal f g
satcount f
nodes f
exists h f a
print h
`
	res, err := p.Submit("alice", "kbdd", script)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("tool error: %s\noutput:\n%s", res.Err, res.Output)
	}
	if !strings.Contains(res.Output, "equal(f,g) = true") {
		t.Errorf("missing equality result:\n%s", res.Output)
	}
	if !strings.Contains(res.Output, "satcount(f) = 5") {
		t.Errorf("satcount wrong:\n%s", res.Output)
	}
}

func TestKBDDErrors(t *testing.T) {
	k := NewKBDD(8)
	for _, bad := range []string{
		"print nope", "frobnicate", "equal a", "restrict x y z",
		"exists d", "compose d f", "bdiff d", "f = @@",
	} {
		if err := k.Exec(bad); err == nil {
			t.Errorf("command %q should fail", bad)
		}
	}
	if err := k.RunScript("var a\nf = a\nprint zz"); err == nil {
		t.Error("script with bad line should fail")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should carry line number: %v", err)
	}
}

func TestKBDDQuantifyRestrictCompose(t *testing.T) {
	k := NewKBDD(8)
	script := `var a b c
f = a & b | ~a & c
r1 = f
restrict p f a 1
restrict q f a 0
compose m f b c
forall u f a
bdiff d f a
tautology d
`
	if err := k.RunScript(script); err != nil {
		t.Fatal(err)
	}
	out := k.Output()
	if !strings.Contains(out, "p = b") {
		t.Errorf("restrict a=1 should give b:\n%s", out)
	}
	if !strings.Contains(out, "q = c") {
		t.Errorf("restrict a=0 should give c:\n%s", out)
	}
	if !strings.Contains(out, "u = ") || !strings.Contains(out, "b c") {
		t.Errorf("forall should give b&c:\n%s", out)
	}
}

func TestKBDDSiftCommand(t *testing.T) {
	k := NewKBDD(8)
	// Separated comparator order: a1 a2 b1 b2 is bad; sift reports a
	// better one.
	script := `var a1 a2 b1 b2
f = (a1 & b1 | ~a1 & ~b1) & (a2 & b2 | ~a2 & ~b2)
sift f
`
	if err := k.RunScript(script); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.Output(), "sift(f):") {
		t.Errorf("missing sift output:\n%s", k.Output())
	}
	if err := k.Exec("sift nope"); err == nil {
		t.Error("sift of unknown function should fail")
	}
}

func TestKBDDDotCommand(t *testing.T) {
	k := NewKBDD(8)
	if err := k.RunScript("var a b\nf = a & b\ndot f"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(k.Output(), "digraph \"f\"") {
		t.Errorf("dot output missing:\n%s", k.Output())
	}
	if err := k.Exec("dot nope"); err == nil {
		t.Error("dot of unknown function should fail")
	}
}

func TestEspressoTool(t *testing.T) {
	p := newCoursePool(t)
	pla := `.i 3
.o 1
111 1
110 1
101 1
011 1
.e
`
	res, err := p.Submit("bob", "espresso", pla)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("tool error: %s", res.Err)
	}
	// Majority function: 3 cubes of 2 literals.
	if !strings.Contains(res.Output, "4 -> 3 cubes") {
		t.Errorf("expected 4 -> 3 cubes:\n%s", res.Output)
	}
	if _, err := p.Submit("bob", "espresso", "garbage"); err != nil {
		t.Fatal(err)
	}
	hist := p.History("bob")
	if len(hist) != 2 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if hist[0].Err == "" {
		t.Error("newest entry should be the failed parse")
	}
}

func TestMiniSATTool(t *testing.T) {
	p := newCoursePool(t)
	res, err := p.Submit("u", "minisat", "p cnf 2 2\n1 2 0\n-1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Output, "s SATISFIABLE") {
		t.Errorf("output:\n%s", res.Output)
	}
	if !strings.Contains(res.Output, "v -1 2 0") {
		t.Errorf("model line wrong:\n%s", res.Output)
	}
	res2, _ := p.Submit("u", "minisat", "p cnf 1 2\n1 0\n-1 0\n")
	if !strings.HasPrefix(res2.Output, "s UNSATISFIABLE") {
		t.Errorf("output:\n%s", res2.Output)
	}
}

func TestSISTool(t *testing.T) {
	p := newCoursePool(t)
	input := `.model demo
.inputs a b c d
.outputs x
.names a b c d x
11-- 1
--11 1
.end
print_stats
fx
print_stats
`
	res, err := p.Submit("u", "sis", input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("tool error: %s\n%s", res.Err, res.Output)
	}
	if !strings.Contains(res.Output, "nodes=") || !strings.Contains(res.Output, ".model demo") {
		t.Errorf("output missing stats or BLIF:\n%s", res.Output)
	}
	if _, err := p.Submit("u", "sis", "no blif here"); err != nil {
		t.Fatal(err)
	}
	if h := p.History("u"); h[0].Err == "" {
		t.Error("missing .end should error")
	}
}

func TestAxbTool(t *testing.T) {
	p := newCoursePool(t)
	// 2x + y = 3; x + 3y = 5.
	in := "2 dense\n2 1\n1 3\n3 5\n"
	res, err := p.Submit("u", "axb", in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("tool error: %s", res.Err)
	}
	if !strings.Contains(res.Output, "x1 = 0.8") || !strings.Contains(res.Output, "x2 = 1.4") {
		t.Errorf("output:\n%s", res.Output)
	}
	// Iterative methods on an SPD system.
	for _, m := range []string{"cg", "gs", "jacobi"} {
		in := "2 " + m + "\n2 -1\n-1 2\n1 1\n"
		res, err := p.Submit("u", "axb", in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != "" {
			t.Fatalf("%s error: %s", m, res.Err)
		}
		if !strings.Contains(res.Output, "x1 = 1") || !strings.Contains(res.Output, "x2 = 1") {
			t.Errorf("%s output:\n%s", m, res.Output)
		}
	}
	for _, bad := range []string{"", "x", "2\n1 2 3\n", "2 zorp\n1 0 0 1 1 1\n"} {
		res, err := p.Submit("u", "axb", bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == "" {
			t.Errorf("input %q should error", bad)
		}
	}
}

func TestRunawayTermination(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, Timeout: 30 * time.Millisecond, Observer: obs.NewObserver(nil)})
	defer p.Close()
	err := p.Register(toolFunc{
		name: "spin",
		desc: "runs forever unless cancelled",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-cancel
			return "cancelled", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "spin", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("runaway tool should be marked timed out")
	}
	if res.Output != "cancelled" {
		t.Errorf("cooperative cancel output = %q", res.Output)
	}
}

func TestHistoryOrder(t *testing.T) {
	p := newCoursePool(t)
	p.Submit("u", "minisat", "p cnf 1 1\n1 0\n")
	p.Submit("u", "minisat", "p cnf 1 2\n1 0\n-1 0\n")
	h := p.History("u")
	if len(h) != 2 {
		t.Fatal("want 2 entries")
	}
	if !strings.HasPrefix(h[0].Output, "s UNSATISFIABLE") {
		t.Error("history should be newest first")
	}
	if len(p.History("ghost")) != 0 {
		t.Error("unknown user should have empty history")
	}
}
