package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: vlsicad/internal/obs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCounterInc             	89308080	         6.045 ns/op	       0 B/op	       0 allocs/op
BenchmarkCounterVecWithInc-8    	36538740	        17.54 ns/op	       0 B/op	       0 allocs/op
BenchmarkWritePrometheus        	   22374	     53012 ns/op	   12144 B/op	     295 allocs/op
PASS
ok  	vlsicad/internal/obs	5.040s
goos: linux
goarch: amd64
pkg: vlsicad/internal/route
BenchmarkMazeRoute              	     100	    105000 ns/op
PASS
ok  	vlsicad/internal/route	1.2s
?   	vlsicad/cmd/grader	[no test files]
`

// singleProcOutput is sampleBenchOutput as `go test -cpu 1` prints
// it: no benchmark name carries a GOMAXPROCS suffix.
var singleProcOutput = strings.Replace(sampleBenchOutput, "BenchmarkCounterVecWithInc-8", "BenchmarkCounterVecWithInc", 1)

func TestParse(t *testing.T) {
	doc, multiProc, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(multiProc) != 1 || multiProc[0] != "BenchmarkCounterVecWithInc-8" {
		t.Errorf("multiProc = %q, want the one suffixed line", multiProc)
	}
	if len(doc) != 4 {
		t.Fatalf("parsed %d benchmarks: %v", len(doc), doc)
	}
	r, ok := doc["vlsicad/internal/obs.BenchmarkCounterInc"]
	if !ok || r.NsPerOp != 6.045 || r.Iterations != 89308080 || r.AllocsPerOp != 0 {
		t.Errorf("CounterInc = %+v (present %v)", r, ok)
	}
	// GOMAXPROCS suffix stripped.
	r, ok = doc["vlsicad/internal/obs.BenchmarkCounterVecWithInc"]
	if !ok || r.NsPerOp != 17.54 {
		t.Errorf("CounterVecWithInc = %+v (present %v)", r, ok)
	}
	r, ok = doc["vlsicad/internal/obs.BenchmarkWritePrometheus"]
	if !ok || r.AllocedBytesPerOp != 12144 || r.AllocsPerOp != 295 {
		t.Errorf("WritePrometheus = %+v (present %v)", r, ok)
	}
	// ns/op-only lines (no -benchmem) still parse.
	r, ok = doc["vlsicad/internal/route.BenchmarkMazeRoute"]
	if !ok || r.NsPerOp != 105000 || r.AllocedBytesPerOp != 0 {
		t.Errorf("MazeRoute = %+v (present %v)", r, ok)
	}
}

func TestMarshalStable(t *testing.T) {
	doc, _, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("marshal is not byte-stable")
	}
	// Valid JSON, keys sorted.
	var m map[string]BenchResult
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, a)
	}
	if len(m) != len(doc) {
		t.Errorf("round-trip lost entries: %d vs %d", len(m), len(doc))
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	var keys []string
	for _, l := range lines {
		if i := strings.Index(l, `"`); i >= 0 {
			j := strings.Index(l[i+1:], `"`)
			keys = append(keys, l[i+1:i+1+j])
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("keys not sorted: %q before %q", keys[i-1], keys[i])
		}
	}
}

func TestRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", out}, strings.NewReader(sampleBenchOutput), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]BenchResult
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("file not JSON: %v", err)
	}
	if !strings.Contains(stdout.String(), "recorded 4 benchmarks") {
		t.Errorf("stdout = %q", stdout.String())
	}

	// No benchmarks on stdin is an error, not an empty file.
	stdout.Reset()
	stderr.Reset()
	if code := run(nil, strings.NewReader("PASS\nok x 1s\n"), &stdout, &stderr); code == 0 {
		t.Error("empty input should fail")
	}
}

func TestCompare(t *testing.T) {
	baseline := Document{
		"pkg.BenchmarkA":    {NsPerOp: 100, AllocsPerOp: 100},
		"pkg.BenchmarkB":    {NsPerOp: 100, AllocsPerOp: 0},
		"pkg.BenchmarkGone": {NsPerOp: 100, AllocsPerOp: 5},
	}
	current := Document{
		"pkg.BenchmarkA":   {NsPerOp: 500, AllocsPerOp: 105}, // within 10% — ns/op is never gated
		"pkg.BenchmarkB":   {NsPerOp: 100, AllocsPerOp: 1},   // +1 absolute slack
		"pkg.BenchmarkNew": {NsPerOp: 100, AllocsPerOp: 9999},
	}
	regs, checked := Compare(baseline, current, 0.10)
	if len(regs) != 0 || checked != 2 {
		t.Fatalf("clean compare: regs=%v checked=%d", regs, checked)
	}

	current["pkg.BenchmarkA"] = BenchResult{NsPerOp: 100, AllocsPerOp: 200}
	current["pkg.BenchmarkB"] = BenchResult{NsPerOp: 100, AllocsPerOp: 3}
	regs, _ = Compare(baseline, current, 0.10)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	// Sorted by name, with the numbers in the message.
	if !strings.Contains(regs[0], "BenchmarkA") || !strings.Contains(regs[0], "100 -> 200") {
		t.Errorf("regs[0] = %q", regs[0])
	}
	if !strings.Contains(regs[1], "BenchmarkB") {
		t.Errorf("regs[1] = %q", regs[1])
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	var stdout, stderr bytes.Buffer

	// Record a baseline from the sample output...
	if code := run([]string{"-out", old}, strings.NewReader(singleProcOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("record: exit %d, stderr: %s", code, stderr.String())
	}

	// ...identical re-measurement passes the gate (stdin form).
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", old}, strings.NewReader(singleProcOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("self-compare: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "within") {
		t.Errorf("stdout = %q", stdout.String())
	}

	// A regressed re-measurement fails (two-file form).
	regressed := strings.Replace(singleProcOutput, "295 allocs/op", "600 allocs/op", 1)
	newFile := filepath.Join(dir, "new.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-out", newFile}, strings.NewReader(regressed), &stdout, &stderr); code != 0 {
		t.Fatalf("record new: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", old, newFile}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("regressed compare: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "REGRESSION") || !strings.Contains(stderr.String(), "BenchmarkWritePrometheus") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// Missing baseline file is an error, not a pass.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", filepath.Join(dir, "nope.json")}, strings.NewReader(singleProcOutput), &stdout, &stderr); code != 1 {
		t.Errorf("missing baseline: exit %d", code)
	}
}

// TestRunCompareRejectsMultiProc: allocs/op moves with GOMAXPROCS, so
// the gate refuses bench output measured at more than one proc even
// when every count is within tolerance.
func TestRunCompareRejectsMultiProc(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", old}, strings.NewReader(singleProcOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("record: exit %d, stderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-compare", old}, strings.NewReader(sampleBenchOutput), &stdout, &stderr); code != 1 {
		t.Fatalf("multi-proc compare: exit %d, stdout %q", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "BenchmarkCounterVecWithInc-8") {
		t.Errorf("stderr = %q, want the suffixed line named", stderr.String())
	}
}
