package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format (version 0.0.4) exposition of a registry
// snapshot. The output is deterministic: families are sorted by
// exposition name, series within a family by their label rendering,
// and floats render with strconv's shortest round-trip form — two
// snapshots of the same state are byte-identical.

// promName sanitizes a metric name to the exposition charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. The repo's legacy flat names use ':' as a
// label-ish separator, which Prometheus happens to allow; anything
// else invalid (e.g. the '-' in "pool_breaker_half-open") maps to '_'.
func promName(name string) string { return promSanitize(name, true) }

// promLabelName sanitizes a label key to [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelName(name string) string { return promSanitize(name, false) }

// promSanitize maps every rune outside [a-zA-Z0-9_] (and ':' when
// colon is set) to '_', as well as a leading digit; "" becomes "_". A
// name that is already valid comes back without an allocation.
func promSanitize(name string, colon bool) string {
	s := strings.Map(func(r rune) rune {
		if r == '_' || colon && r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			return r
		}
		return '_'
	}, name)
	if s == "" {
		return "_"
	}
	if s[0] >= '0' && s[0] <= '9' {
		return "_" + s[1:]
	}
	return s
}

// promEscape escapes a label value per the text format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promFloat renders a float in shortest round-trip form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a sorted {k="v",...} block ("" when empty).
// extraK/extraV, when non-empty, is appended last (the histogram
// "le" label).
func promLabels(labels map[string]string, extraK, extraV string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, promLabelName(k)+`="`+promEscape(labels[k])+`"`)
	}
	if extraK != "" {
		parts = append(parts, extraK+`="`+promEscape(extraV)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promFamily is one exposition family being assembled: a flat metric
// contributes a single unlabeled series, a labeled family one series
// per child; same-name same-type families merge.
type promFamily struct {
	name  string
	typ   string // "counter" | "gauge" | "histogram"
	lines []string
}

// writeHistSeries appends one histogram series (cumulative buckets,
// +Inf, _sum, _count) to the family.
func (f *promFamily) writeHistSeries(labels map[string]string, h HistogramSnapshot) {
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		f.lines = append(f.lines, f.name+"_bucket"+
			promLabels(labels, "le", promFloat(bound))+" "+
			strconv.FormatInt(cum, 10))
	}
	f.lines = append(f.lines, f.name+"_bucket"+
		promLabels(labels, "le", "+Inf")+" "+
		strconv.FormatInt(h.Count, 10))
	f.lines = append(f.lines, f.name+"_sum"+promLabels(labels, "", "")+
		" "+promFloat(h.Sum))
	f.lines = append(f.lines, f.name+"_count"+promLabels(labels, "", "")+
		" "+strconv.FormatInt(h.Count, 10))
}

// sortedKeys returns m's keys sorted — the deterministic iteration
// order every exposition pass uses.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// eachSeries calls fn on every series of one metric kind in export
// order: each flat metric as a label-less series (wrap builds it),
// then each labeled family's series, names sorted within each group.
func eachSeries[V, S any](flat map[string]V, vecs map[string][]S, wrap func(V) S, fn func(name string, s S)) {
	for _, name := range sortedKeys(flat) {
		fn(name, wrap(flat[name]))
	}
	for _, name := range sortedKeys(vecs) {
		for _, sr := range vecs[name] {
			fn(name, sr)
		}
	}
}

// eachCounter, eachGauge and eachHistogram run eachSeries over one
// kind of the snapshot.
func (s RegistrySnapshot) eachCounter(fn func(name string, sr LabeledCounter)) {
	eachSeries(s.Counters, s.CounterVecs, func(v int64) LabeledCounter { return LabeledCounter{Value: v} }, fn)
}

func (s RegistrySnapshot) eachGauge(fn func(name string, sr LabeledGauge)) {
	eachSeries(s.Gauges, s.GaugeVecs, func(v float64) LabeledGauge { return LabeledGauge{Value: v} }, fn)
}

func (s RegistrySnapshot) eachHistogram(fn func(name string, sr LabeledHistogram)) {
	eachSeries(s.Histograms, s.HistogramVecs, func(h HistogramSnapshot) LabeledHistogram { return LabeledHistogram{Hist: h} }, fn)
}

// WritePrometheus renders the snapshot in Prometheus text format with
// deterministic ordering: families sorted by exposition name, flat
// series before labeled ones, labeled series in snapshot (label-
// sorted) order, histogram buckets in ascending le order.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	var family func(name, typ string) *promFamily
	family = func(name, typ string) *promFamily {
		ename := promName(name)
		f := fams[ename]
		if f == nil {
			f = &promFamily{name: ename, typ: typ}
			fams[ename] = f
		}
		if f.typ != typ {
			// Two differently-typed metrics sanitized to one name —
			// rename the newcomer rather than emit a malformed page.
			return family(name+"_"+typ, typ)
		}
		return f
	}
	// Append in sorted original-name order, flat metrics before
	// labeled series, so each family's line order is deterministic even
	// when sanitization merges names.
	s.eachCounter(func(name string, sr LabeledCounter) {
		f := family(name, "counter")
		f.lines = append(f.lines, f.name+promLabels(sr.Labels, "", "")+" "+strconv.FormatInt(sr.Value, 10))
	})
	s.eachGauge(func(name string, sr LabeledGauge) {
		f := family(name, "gauge")
		f.lines = append(f.lines, f.name+promLabels(sr.Labels, "", "")+" "+promFloat(sr.Value))
	})
	s.eachHistogram(func(name string, sr LabeledHistogram) {
		family(name, "histogram").writeHistSeries(sr.Labels, sr.Hist)
	})

	bw := bufio.NewWriter(w)
	for _, n := range sortedKeys(fams) {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, line := range f.lines {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ValidateExposition reads a Prometheus text page and returns an
// error on the first malformed line — the checker the CI scrape drill
// (and the chaos scrape tests) run against a live /metrics endpoint.
// It verifies line shape (comments, `name{labels} value`, `name
// value`), name/label charsets, numeric values, and that every sample
// belongs to a `# TYPE`-declared family.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) >= 4 && parts[1] == "TYPE" {
				if promName(parts[2]) != parts[2] {
					return fmt.Errorf("line %d: bad family name %q", lineNo, parts[2])
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: bad family type %q", lineNo, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if name == "" || promName(name) != name {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(name, suffix)]; ok && t == "histogram" {
				base = strings.TrimSuffix(name, suffix)
				break
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("line %d: unterminated label block", lineNo)
			}
			for _, pair := range splitLabelPairs(rest[1:end]) {
				eq := strings.Index(pair, "=")
				if eq <= 0 {
					return fmt.Errorf("line %d: bad label pair %q", lineNo, pair)
				}
				k, v := pair[:eq], pair[eq+1:]
				if promLabelName(k) != k {
					return fmt.Errorf("line %d: bad label name %q", lineNo, k)
				}
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return fmt.Errorf("line %d: unquoted label value %q", lineNo, v)
				}
			}
			rest = rest[end+1:]
		}
		val := strings.TrimSpace(rest)
		if val == "" {
			return fmt.Errorf("line %d: missing sample value", lineNo)
		}
		if _, err := strconv.ParseFloat(strings.Fields(val)[0], 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, val)
		}
	}
	return sc.Err()
}

// splitLabelPairs splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
