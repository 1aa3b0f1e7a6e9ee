package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry replays a fixed operation sequence under a fake
// clock — the canonical page the golden file pins down.
func goldenRegistry() *Observer {
	clock := NewFakeClock(time.Unix(1700000000, 0).UTC(), time.Millisecond)
	o := NewObserver(clock.Now)
	r := o.Registry()

	r.Counter("flow_runs_total").Add(3)
	r.Counter("pool_jobs_total").Add(42)
	r.Gauge("pool_queue_depth").Set(5)
	r.Gauge("runtime_goroutines").Set(12)

	jobs := r.CounterVec("pool_tool_jobs_total", "tool")
	jobs.With("kbdd").Add(17)
	jobs.With("espresso").Add(9)
	jobs.With("minisat").Add(1)
	shed := r.CounterVec("pool_tool_shed_total", "tool", "reason")
	shed.With("kbdd", "queue").Add(2)
	shed.With("kbdd", "breaker").Add(1)
	state := r.GaugeVec("portal_breaker_state", "tool")
	state.With("kbdd").Set(0)
	state.With("espresso").Set(2)

	h := r.Histogram("flow_total_seconds", 0.001, 0.01, 0.1, 1)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	hv := r.HistogramVec("pool_tool_job_seconds", []string{"tool"}, 0.001, 0.1, 10)
	hv.With("kbdd").Observe(0.002)
	hv.With("kbdd").Observe(0.2)
	hv.With("espresso").Observe(0.0001)

	// A name needing sanitization ('-' → '_') and a value needing
	// escaping exercise the writer's corner paths.
	r.Counter("pool_breaker_half-open").Add(4)
	r.CounterVec("odd_labels_total", "path").With(`a"b\c` + "\n").Inc()
	return o
}

// goldenObserver adds a small span tree and a few events to
// goldenRegistry's metrics, all on its fake clock — the canonical
// snapshot the JSON and text goldens pin down.
func goldenObserver() *Observer {
	o := goldenRegistry()
	root := o.StartSpan("flow")
	root.SetLabel("model", "adder")
	for _, st := range []string{"synth", "place"} {
		sp := root.StartChild("flow." + st)
		if st == "place" {
			sp.StartChild("place.anneal").End()
		}
		sp.End()
	}
	root.End()
	o.StartSpan("job").End()
	o.Emit("job_abandoned", map[string]string{"tool": "kbdd", "user": "s1"})
	o.Emit("drc_violations", map[string]string{"model": "adder", "count": "2"})
	o.Emit("tick", nil)
	return o
}

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Registry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
	// The page we pin must itself be well-formed.
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("golden page fails validation: %v", err)
	}
}

func TestSnapshotJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenObserver().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", buf.Bytes())
}

func TestSnapshotTextGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenObserver().Snapshot().WriteText(&buf)
	checkGolden(t, "snapshot.txt", buf.Bytes())
}

func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := goldenRegistry().Registry().Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("two renders of the same op sequence differ")
	}
}

func TestWritePrometheusHistogramShape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
`
	if got != want {
		t.Errorf("histogram exposition:\n got %q\nwant %q", got, want)
	}
}

func TestValidateExposition(t *testing.T) {
	ok := []string{
		"# TYPE a counter\na 1\n",
		"# TYPE a gauge\na{x=\"y\"} 1.5\n",
		"# HELP a something\n# TYPE a counter\na 1\n",
		"# TYPE lat histogram\nlat_bucket{le=\"+Inf\"} 1\nlat_sum 0.5\nlat_count 1\n",
		"# TYPE a counter\na{x=\"comma,inside\",y=\"z\"} 2\n",
	}
	for i, page := range ok {
		if err := ValidateExposition(strings.NewReader(page)); err != nil {
			t.Errorf("valid page %d rejected: %v", i, err)
		}
	}
	bad := map[string]string{
		"undeclared sample":  "a 1\n",
		"bad family name":    "# TYPE 9bad counter\n9bad 1\n",
		"bad family type":    "# TYPE a wat\na 1\n",
		"bad metric name":    "# TYPE a counter\na-b 1\n",
		"unterminated block": "# TYPE a counter\na{x=\"y\" 1\n",
		"unquoted value":     "# TYPE a counter\na{x=y} 1\n",
		"bad label name":     "# TYPE a counter\na{9x=\"y\"} 1\n",
		"missing value":      "# TYPE a counter\na{x=\"y\"}\n",
		"bad value":          "# TYPE a counter\na potato\n",
	}
	for name, page := range bad {
		if err := ValidateExposition(strings.NewReader(page)); err == nil {
			t.Errorf("%s: malformed page accepted", name)
		}
	}
}

func TestPromSanitize(t *testing.T) {
	for _, c := range []struct{ in, name, label string }{
		{"", "_", "_"},
		{"ok_9", "ok_9", "ok_9"},
		{"9lives", "_lives", "_lives"},
		{"a-b", "a_b", "a_b"},
		{"layer:dim", "layer:dim", "layer_dim"},
		{"café", "caf_", "caf_"},
	} {
		if got := promName(c.in); got != c.name {
			t.Errorf("promName(%q) = %q, want %q", c.in, got, c.name)
		}
		if got := promLabelName(c.in); got != c.label {
			t.Errorf("promLabelName(%q) = %q, want %q", c.in, got, c.label)
		}
	}
}

func TestPromNameCollision(t *testing.T) {
	// "a-b" (counter) and "a_b" (gauge) sanitize to the same name with
	// different types; the writer must not emit two TYPE lines for one
	// family name.
	r := NewRegistry()
	r.Counter("a-b").Inc()
	r.Gauge("a_b").Set(1)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("collision page invalid: %v\n%s", err, buf.String())
	}
	if c := strings.Count(buf.String(), "# TYPE a_b "); c != 1 {
		t.Errorf("family a_b declared %d times:\n%s", c, buf.String())
	}
}

// TestPrometheusScrapeUnderLoad renders the page while writers mutate
// the registry — under -race this is the concurrent scrape check; in
// all modes every produced page must parse.
func TestPrometheusScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := r.CounterVec("load_total", "worker")
			hv := r.HistogramVec("load_seconds", []string{"worker"}, 0.001, 0.1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v.With(fmt.Sprintf("w%d", (w+i)%8)).Inc()
				hv.With(fmt.Sprintf("w%d", w)).Observe(0.01)
				r.Gauge("load_gauge").Set(float64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("scrape %d malformed: %v\n%s", i, err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}
