package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vlsicad/internal/portal"
)

const specPath = "../../BENCHMARK.json"

// smoke runs one workload at -short size and returns its exit code,
// its summary line and its full record.
func smoke(t *testing.T, workload string, trace bool, wrap func(portal.Tool) portal.Tool) (int, map[string]any, record) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // the portal's journal files
	cfg := &config{workload: workload, seed: 1, seconds: 0.5, trace: trace, short: true, spec: specPath,
		out: filepath.Join(dir, "out.jsonl"), wrapTool: wrap}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	recs, err := readRecords(cfg.out)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%s: reading the record: %v (%d records)", workload, err, len(recs))
	}
	return code, line, recs[0]
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program says %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			code, line, rec := smoke(t, w.name, trace, nil)
			if code != 0 || line["correct"] != true {
				t.Errorf("%s trace=%v: exit %d, correct=%v, problems %v", w.name, trace, code, line["correct"], rec.Problems)
			}
			if rec.Metrics["fail_frac"].Value != 0 {
				t.Errorf("%s: fail_frac = %v", w.name, rec.Metrics["fail_frac"].Value)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got, _ := line["metrics"].(map[string]any)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(got), len(want))
			}
			for _, sm := range want {
				m, _ := got[sm.Name].(map[string]any)
				if m == nil || m["unit"] != sm.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %v, want unit %q", w.name, trace, sm.Name, m, sm.Unit)
				}
			}
		}
	}
}

// wrongOutput is a tool that answers with one extra character.
type wrongOutput struct{ portal.Tool }

func (w wrongOutput) Run(input string, cancel <-chan struct{}) (string, error) {
	out, err := w.Tool.Run(input, cancel)
	return out + "!", err
}

func TestSabotagedToolFails(t *testing.T) {
	code, line, rec := smoke(t, "portal-homework", false, func(t portal.Tool) portal.Tool {
		if t.Name() == "kbdd" {
			return wrongOutput{t}
		}
		return t
	})
	if code == 0 || line["correct"] != false {
		t.Errorf("exit %d, correct=%v with a wrong kbdd: want a failure", code, line["correct"])
	}
	if f := rec.Metrics["fail_frac"].Value; f <= 0 {
		t.Errorf("fail_frac = %v with a wrong kbdd, want > 0", f)
	}
}

func TestSameSeedReproducesQoR(t *testing.T) {
	dir := t.TempDir()
	var files []string
	var recs []record
	for i := 0; i < 2; i++ {
		code, _, rec := smoke(t, "flow-quadratic", false, nil)
		if code != 0 {
			t.Fatalf("run %d: exit %d, problems %v", i, code, rec.Problems)
		}
		path := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		files, recs = append(files, path), append(recs, rec)
	}
	for name := range qorMetrics {
		a, b := recs[0].Metrics[name], recs[1].Metrics[name]
		if a.N == 0 || a.Value != b.Value {
			t.Errorf("%s: %+v then %+v with the same seed", name, a, b)
		}
	}
	// Timings may differ by more than their bounds between two single
	// runs; the QoR gate must pass.
	var out, errs bytes.Buffer
	compareFiles(specPath, files[0], files[1], &out, &errs)
	gated := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && qorMetrics[f[1]] {
			gated++
			if f[len(f)-1] != "ok" {
				t.Errorf("-compare of two runs of one seed: %s", line)
			}
		}
	}
	if gated != len(qorMetrics) {
		t.Errorf("-compare printed %d QoR rows, want %d\n%s%s", gated, len(qorMetrics), out.String(), errs.String())
	}
}
