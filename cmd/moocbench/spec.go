package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the program reads: the names,
// units, directions and bounds of the metrics it must report.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// find returns the named metric's definition, end-to-end first.
func (s *benchSpec) find(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders the run as the one-line JSON summary: the
// end-to-end metrics of the spec, or with tracing on its per-layer
// metrics. A workload reports every end-to-end metric; a per-layer
// metric of a layer the workload does not run reads 0.
func summaryLine(spec *benchSpec, rec record) (string, error) {
	list, required := spec.EndToEnd, true
	if rec.Trace {
		list, required = spec.PerLayer, false
	}
	out := map[string]lineMetric{}
	for _, sm := range list {
		m, ok := rec.Metrics[sm.Name]
		switch {
		case !ok && required:
			return "", fmt.Errorf("workload %s does not report %s", rec.Workload, sm.Name)
		case !ok:
			m = metric{Unit: sm.Unit}
		case m.Unit != sm.Unit:
			return "", fmt.Errorf("%s is measured in %s, the spec says %s", sm.Name, m.Unit, sm.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return "", fmt.Errorf("%s is %v", sm.Name, m.Value)
		}
		out[sm.Name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, out})
	return string(b), err
}
