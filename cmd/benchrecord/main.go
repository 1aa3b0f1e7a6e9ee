// Command benchrecord parses `go test -bench` output on stdin into a
// stable JSON document mapping each benchmark to its ns/op, B/op and
// allocs/op — the format the repo's performance trajectory files
// (BENCH_PR*.json, see EXPERIMENTS.md) are recorded in.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchrecord -out BENCH_PR7.json
//	go test -bench=. -benchmem ./... | benchrecord -compare BENCH_PR7.json
//	benchrecord -compare old.json new.json
//
// Results are keyed by package-qualified benchmark name with the
// GOMAXPROCS suffix stripped (BenchmarkCounterInc-8 and
// BenchmarkCounterInc are the same trajectory point on different
// machines), and the document's keys are sorted so successive
// recordings diff cleanly.
//
// -compare is the CI regression gate: it exits nonzero when any
// benchmark present in both documents allocates more per op in the new
// one than -tolerance allows. Only allocs/op is gated — it is a count
// the runtime reports exactly, independent of machine load, so a 1x
// benchtime run gates reliably where ns/op would flake. The count does
// depend on GOMAXPROCS (parallel code allocates per worker), so the
// gate compares only single-proc runs: -compare also exits nonzero
// when a benchmark line on stdin carries a -N GOMAXPROCS suffix, which
// `go test` prints whenever GOMAXPROCS is not 1 (run it with -cpu 1).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	// NsPerOp is wall time per iteration in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocedBytesPerOp is heap bytes per iteration (-benchmem only).
	AllocedBytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is heap allocations per iteration (-benchmem only).
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Iterations is the b.N the measurement ran with.
	Iterations int64 `json:"iterations"`
}

// Document is the trajectory-file shape: a flat sorted map from
// "pkg.BenchmarkName" to its numbers.
type Document map[string]BenchResult

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrecord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write JSON here instead of stdout")
	compare := fs.String("compare", "", "baseline JSON: gate allocs/op regressions against it")
	tolerance := fs.Float64("tolerance", 0.10, "allowed fractional allocs/op growth before -compare fails")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare != "" {
		baseline, err := readDocument(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "benchrecord: %v\n", err)
			return 1
		}
		// New measurements come from a second JSON file when given,
		// otherwise from bench output on stdin (the Makefile pipe form).
		var current Document
		var multiProc []string
		if fs.NArg() > 0 {
			current, err = readDocument(fs.Arg(0))
		} else {
			current, multiProc, err = Parse(stdin)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchrecord: %v\n", err)
			return 1
		}
		if len(multiProc) > 0 {
			fmt.Fprintf(stderr, "benchrecord: %d benchmark lines ran at GOMAXPROCS > 1 (first: %s); allocs/op is gated at -cpu 1 only\n",
				len(multiProc), multiProc[0])
			return 1
		}
		if len(current) == 0 {
			fmt.Fprintln(stderr, "benchrecord: no benchmarks to compare")
			return 1
		}
		regressions, checked := Compare(baseline, current, *tolerance)
		for _, r := range regressions {
			fmt.Fprintln(stderr, "benchrecord: REGRESSION:", r)
		}
		if len(regressions) > 0 {
			return 1
		}
		fmt.Fprintf(stdout, "benchrecord: %d benchmarks within %.0f%% allocs/op of %s\n",
			checked, *tolerance*100, *compare)
		return 0
	}

	doc, _, err := Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchrecord: %v\n", err)
		return 1
	}
	if len(doc) == 0 {
		fmt.Fprintln(stderr, "benchrecord: no benchmark lines on stdin")
		return 1
	}
	b, err := Marshal(doc)
	if err != nil {
		fmt.Fprintf(stderr, "benchrecord: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchrecord: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %d benchmarks to %s\n", len(doc), *out)
		return 0
	}
	stdout.Write(b)
	return 0
}

// Parse reads `go test -bench` output and collects benchmark lines.
// Package context comes from the trailing "ok <pkg> <time>" / leading
// "pkg: <pkg>" lines; a benchmark seen before any package marker is
// keyed by bare name. multiProc lists, in input order, the lines whose
// name carried a -N GOMAXPROCS suffix (stripped in the document).
func Parse(r io.Reader) (doc Document, multiProc []string, err error) {
	doc = Document{}
	// Benchmarks print before their package's "ok" summary line, so
	// buffer each package's results until the marker names it.
	pending := map[string]BenchResult{}
	flush := func(pkg string) {
		for name, res := range pending {
			key := name
			if pkg != "" {
				key = pkg + "." + name
			}
			doc[key] = res
		}
		pending = map[string]BenchResult{}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		f := strings.Fields(line)
		switch {
		case len(f) >= 3 && f[0] == "ok":
			flush(f[1])
		case len(f) >= 2 && f[0] == "pkg:":
			// nothing to do: pkg: precedes the benchmarks, the ok
			// line after them is the reliable marker
		case len(f) >= 3 && strings.HasPrefix(f[0], "Benchmark"):
			name, res, ok := parseBenchLine(f)
			if ok {
				pending[name] = res
				if name != f[0] {
					multiProc = append(multiProc, f[0])
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	flush("")
	return doc, multiProc, nil
}

// parseBenchLine decodes one "BenchmarkX-8  N  12.3 ns/op [...]" line.
func parseBenchLine(f []string) (string, BenchResult, bool) {
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix only when numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", BenchResult{}, false
	}
	res := BenchResult{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		switch f[i+1] {
		case "ns/op":
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				res.NsPerOp = v
				seen = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(f[i], 10, 64); err == nil {
				res.AllocedBytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(f[i], 10, 64); err == nil {
				res.AllocsPerOp = v
			}
		}
	}
	return name, res, seen
}

// readDocument loads a recorded trajectory file.
func readDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// Compare gates current against baseline: every benchmark present in
// both documents may grow allocs/op by at most the tolerance fraction
// (with an absolute slack of 1 alloc so near-zero baselines don't gate
// on noise). Benchmarks only in one document are skipped — renames and
// new benchmarks must not fail the gate. Returns the regression
// descriptions sorted by name and the number of benchmarks checked.
func Compare(baseline, current Document, tolerance float64) ([]string, int) {
	var regressions []string
	checked := 0
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := baseline[name]
		if !ok {
			continue
		}
		checked++
		cur := current[name]
		limit := int64(float64(base.AllocsPerOp)*(1+tolerance)) + 1
		if cur.AllocsPerOp > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %d -> %d (limit %d)",
					name, base.AllocsPerOp, cur.AllocsPerOp, limit))
		}
	}
	return regressions, checked
}

// Marshal renders the document with sorted keys and a trailing
// newline — byte-stable for a given input.
func Marshal(doc Document) ([]byte, error) {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(doc[k])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s", k, v)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}
