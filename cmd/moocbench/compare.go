package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// qorMetrics are deterministic for a given design set and seed, so any
// worsening between two record files with the same seeds counts.
var qorMetrics = map[string]bool{
	"place.hpwl": true, "route.completion": true, "drc.violations": true, "timing.critical_delay": true,
}

// readRecords loads an -out file: one run record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// byMetric groups the records' metric values by workload and name.
func byMetric(recs []record) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareFiles prints, for each workload and metric, both sides'
// median and interquartile range over their runs, and a verdict: a
// regression when B is worse than A by more than the spec's bound (any
// worsening for QoR), unresolved when either side's spread exceeds the
// bound. It returns 1 when any regression is found.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 2
	}
	ra, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 2
	}
	rb, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "moocbench:", err)
		return 2
	}
	a, b := byMetric(ra), byMetric(rb)
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(stdout, "%-16s %-30s %12s %7s %12s %7s %8s  %s\n", "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "verdict")
	regressions := 0
	for _, k := range keys {
		qa, qb := quartiles(a[k]), quartiles(b[k])
		iqrA, iqrB := ratio(qa[2]-qa[0], qa[1]), ratio(qb[2]-qb[0], qb[1])
		change := ratio(qb[1]-qa[1], qa[1])
		verdict := ""
		sm, ok := spec.find(k[1])
		switch {
		case ok && (sm.Bound > 0 || qorMetrics[k[1]]):
			worse := change
			if sm.Better == "higher" {
				worse = -change
			}
			switch {
			case worse > sm.Bound:
				verdict = "REGRESSION"
				regressions++
			case sm.Bound > 0 && (iqrA > sm.Bound || iqrB > sm.Bound):
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(stdout, "%-16s %-30s %12.6g %6.1f%% %12.6g %6.1f%% %7.1f%%  %s\n",
			k[0], k[1], qa[1], 100*iqrA, qb[1], 100*iqrB, 100*change, verdict)
	}
	fmt.Fprintf(stdout, "A: %d runs, B: %d runs, %d regressions\n", len(ra), len(rb), regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}
