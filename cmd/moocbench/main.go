// Command moocbench is the course system's end-to-end benchmark. It
// runs one named workload — the logic-to-layout flow a student runs, or
// a traffic mix on the cloud tool portal — from inputs it generates
// from a seed, checks every output, and prints each metric with its
// unit. With -trace 1 it times every layer from outside, through the
// public entry points, and prints the per-layer breakdown instead.
//
//	moocbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE] [-short]
//	moocbench -compare A.jsonl B.jsonl
//
// Without -workload it runs every workload, each in its own process.
// The last line of standard output is a JSON summary of the run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"vlsicad/internal/portal"
)

type workload struct {
	name string
	run  func(*config, *result) error
}

var workloads = []workload{
	{"flow-quadratic", func(c *config, r *result) error { return runFlowWorkload(c, r, flowQuadratic) }},
	{"flow-anneal", func(c *config, r *result) error { return runFlowWorkload(c, r, flowAnneal) }},
	{"portal-homework", func(c *config, r *result) error { return runPortalWorkload(c, r, portalHomework) }},
	{"portal-storm", func(c *config, r *result) error { return runPortalWorkload(c, r, portalStorm) }},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	out      string
	spec     string
	short    bool
	// wrapTool, when set, decorates every portal tool; tests use it to
	// sabotage outputs.
	wrapTool func(portal.Tool) portal.Tool
}

// setups is how many times a workload sets up to report setup_s as a
// median; -short sets up once.
func (c *config) setups(n int) int {
	if c.short {
		return 1
	}
	return n
}

// distinct scales a portal workload's input pool down under -short.
func (c *config) distinct(n int) int {
	if c.short {
		return min(n, 8)
	}
	return n
}

// result collects one run's counts, failures and metrics.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	tr                *tracer
}

// fail counts a failed operation and keeps the first reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// repeatSetup runs setup n times, discards all but the last state, and
// reports the median set-up time as setup_s.
func repeatSetup[T any](r *result, n int, setup func() (T, error), discard func(T)) (T, error) {
	var times []float64
	var st T
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(st)
		}
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = summarize("s", times)
	return st, nil
}

// region instruments a workload's timed region: garbage collection,
// and the resident set sampled every 50 ms.
type region struct {
	start  time.Time
	cycles uint32
	pause  uint64
	rss    *rssSampler
}

func startRegion() *region {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &region{start: time.Now(), cycles: ms.NumGC, pause: ms.PauseTotalNs, rss: sampleRSS(50 * time.Millisecond)}
}

// end records the region's rss_mb and runtime metrics and returns its
// wall time.
func (g *region) end(r *result) time.Duration {
	d := time.Since(g.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.metrics["rss_mb"] = summarize("MB", g.rss.end())
	r.metrics["runtime.gc_cycles"] = single("count", float64(ms.NumGC-g.cycles))
	r.metrics["runtime.gc_pause_s"] = single("s", time.Duration(ms.PauseTotalNs-g.pause).Seconds())
	return d
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("moocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "seconds the run measures for")
	traceFlag := fs.Int("trace", 0, "1 times every layer and reports the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write every span to this JSONL file")
	fs.StringVar(&cfg.out, "out", "", "append the run's full record (metadata, all metrics) to this JSONL file")
	fs.StringVar(&cfg.spec, "spec", "BENCHMARK.json", "benchmark definition naming the reported metrics")
	fs.BoolVar(&cfg.short, "short", false, "smallest inputs, one set-up: a smoke run")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "moocbench: -compare needs two record files")
			return 2
		}
		return compareFiles(cfg.spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "moocbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "moocbench: -seconds must be positive")
		return 2
	}
	if cfg.workload == "" {
		return runAll(args, stdout, stderr)
	}
	return execute(cfg, stdout, stderr)
}

// runAll runs every workload in a fresh process of this program.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "=== %s ===\n", w.name)
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintln(stderr, "moocbench:", err)
				return 1
			}
			code = max(code, ee.ExitCode())
		}
	}
	return code
}

// execute runs cfg.workload once and prints its report. It returns 0
// only when every operation succeeded and every check passed.
func execute(cfg *config, stdout, stderr io.Writer) int {
	spec, err := readSpec(cfg.spec)
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "moocbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	r := &result{metrics: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := w.run(cfg, r); err != nil {
		fmt.Fprintf(stderr, "moocbench: %s: %v\n", w.name, err)
		for _, p := range r.problems {
			fmt.Fprintln(stderr, "  FAIL", p)
		}
		return 1
	}
	if r.attempted > 0 {
		r.metrics["fail_frac"] = single("ratio", float64(r.failed)/float64(r.attempted))
	}

	rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Meta: metadata(),
		Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Problems: r.problems, Metrics: r.metrics}
	writeReport(stdout, rec)
	if cfg.trace {
		r.tr.writeSelfTable(stdout)
		if cfg.spans != "" {
			if err := r.tr.writeJSONL(cfg.spans); err != nil {
				fmt.Fprintln(stderr, "moocbench: spans:", err)
				return 1
			}
		}
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			fmt.Fprintln(stderr, "moocbench:", err)
			return 1
		}
	}
	line, err := summaryLine(spec, rec)
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// record is one run's full result, as appended to an -out file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Meta      map[string]string `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// metadata describes the machine and build a run measured.
func metadata() map[string]string {
	m := map[string]string{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu": cpuModel(), "commit": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["commit"] = s.Value
			case "vcs.modified":
				m["commit_modified"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeReport prints the run's metadata, outcome and every metric.
func writeReport(w io.Writer, rec record) {
	keys := make([]string, 0, len(rec.Meta))
	for k := range rec.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%s", k, rec.Meta[k])
	}
	fmt.Fprintf(w, "\nattempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  FAIL", p)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %14s %-6s %14s %14s %6s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %-6s %14.6g %14.6g %6d\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
