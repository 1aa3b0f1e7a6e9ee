package portal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// scrape GETs one path off the handler and returns status + body.
func scrape(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestPoolScrapeUnderChaos runs the full telemetry plane against a
// pool being hammered with healthy and failing jobs: every /metrics
// scrape taken mid-flight must be well-formed, and afterwards the
// per-tool labeled series must reflect what happened.
func TestPoolScrapeUnderChaos(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{
		Workers:    4,
		QueueDepth: 32,
		Timeout:    time.Second,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		Breaker:    BreakerConfig{FailureThreshold: 1 << 30, Cooldown: time.Millisecond},
		Observer:   ob,
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	boom := toolFunc{name: "boom", desc: "always fails",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return "", errors.New("synthetic failure")
		}}
	if err := p.Register(boom); err != nil {
		t.Fatal(err)
	}
	h := obs.NewHandler(ob, obs.HandlerOpts{Ready: p.Ready})

	const users, jobsPer = 4, 20
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", u)
			for i := 0; i < jobsPer; i++ {
				tool := "echo"
				if i%4 == 3 {
					tool = "boom"
				}
				p.Submit(user, tool, fmt.Sprintf("payload %d", i))
			}
		}(u)
	}
	// Scrape while the storm runs: pages may be mid-count but never
	// malformed, and the probes must answer.
	for i := 0; i < 20; i++ {
		code, body := scrape(t, h, "/metrics")
		if code != 200 {
			t.Fatalf("mid-chaos /metrics = %d", code)
		}
		if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
			t.Fatalf("mid-chaos scrape %d malformed: %v\n%s", i, err, body)
		}
		if code, _ := scrape(t, h, "/healthz"); code != 200 {
			t.Fatalf("mid-chaos /healthz = %d", code)
		}
		if code, _ := scrape(t, h, "/readyz"); code != 200 {
			t.Fatalf("mid-chaos /readyz = %d (breakers never trip at this threshold)", code)
		}
	}
	wg.Wait()

	m := ob.Snapshot().Metrics
	echoJobs, ok := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": "echo"})
	if !ok || echoJobs != users*15 {
		t.Errorf("pool_tool_jobs_total{echo} = %d (present %v), want %d", echoJobs, ok, users*15)
	}
	boomJobs, ok := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": "boom"})
	if !ok || boomJobs != users*5 {
		t.Errorf("pool_tool_jobs_total{boom} = %d (present %v), want %d", boomJobs, ok, users*5)
	}
	if hs, ok := m.HistogramSeries("pool_tool_job_seconds", map[string]string{"tool": "echo"}); !ok || hs.Count != echoJobs {
		t.Errorf("pool_tool_job_seconds{echo} count = %d (present %v), want %d", hs.Count, ok, echoJobs)
	}
	if v, ok := m.GaugeSeries("portal_breaker_state", map[string]string{"tool": "echo"}); !ok || v != 0 {
		t.Errorf("portal_breaker_state{echo} = %g (present %v), want 0 (closed)", v, ok)
	}
	// The final page must also expose the labeled series verbatim.
	_, body := scrape(t, h, "/metrics")
	for _, want := range []string{
		`pool_tool_jobs_total{tool="echo"}`,
		`pool_tool_jobs_total{tool="boom"}`,
		`pool_tool_job_seconds_bucket{tool="echo",le="+Inf"}`,
		`portal_breaker_state{tool="boom"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("final /metrics page missing %q", want)
		}
	}
	// Deterministic ordering: two consecutive idle scrapes are
	// byte-identical.
	_, again := scrape(t, h, "/metrics")
	if !bytes.Equal(body, again) {
		t.Error("idle scrapes differ — exposition ordering is not deterministic")
	}
}

// TestReadyzFollowsBreakerAndClose drives the readiness probe through
// its three answers: ready, 503 when every tool breaker is open, ready
// again after cooldown recovery, then 503 for good once the pool
// closes.
func TestReadyzFollowsBreakerAndClose(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{
		Workers:  2,
		Timeout:  time.Second,
		Breaker:  BreakerConfig{FailureThreshold: 2, Cooldown: 20 * time.Millisecond},
		Observer: ob,
	})
	boom := toolFunc{name: "boom", desc: "always fails",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return "", errors.New("synthetic failure")
		}}
	if err := p.Register(boom); err != nil {
		t.Fatal(err)
	}
	h := obs.NewHandler(ob, obs.HandlerOpts{Ready: p.Ready})

	if code, _ := scrape(t, h, "/readyz"); code != 200 {
		t.Fatalf("fresh pool /readyz = %d", code)
	}
	// Trip the only breaker: the whole portal is shedding -> not ready.
	for i := 0; i < 2; i++ {
		p.Submit("u", "boom", "x")
	}
	if st, _ := p.BreakerState("boom"); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	code, body := scrape(t, h, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all breakers open = %d", code)
	}
	if !strings.Contains(string(body), "breakers open") {
		t.Errorf("/readyz body should explain: %q", body)
	}
	if v, ok := ob.Snapshot().Metrics.GaugeSeries("portal_breaker_state", map[string]string{"tool": "boom"}); !ok || v != 1 {
		t.Errorf("portal_breaker_state{boom} = %g (present %v), want 1 (open)", v, ok)
	}
	if v, ok := ob.Snapshot().Metrics.CounterSeries("pool_breaker_transitions_total",
		map[string]string{"tool": "boom", "to": "open"}); !ok || v < 1 {
		t.Errorf("pool_breaker_transitions_total{boom,open} = %d (present %v)", v, ok)
	}

	// After cooldown the breaker goes half-open, which counts as ready
	// (probes are admitted).
	time.Sleep(25 * time.Millisecond)
	if err := p.Ready(); err != nil {
		// Half-open requires an Allow() to transition; poke it.
		p.Submit("u", "boom", "probe")
	}
	// Whether the probe failed (re-open) or not, closing the pool must
	// pin readiness to 503.
	p.Close()
	code, body = scrape(t, h, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "closed") {
		t.Fatalf("/readyz after Close = %d %q", code, body)
	}
}

// TestPoolLiveScrapeEndToEnd exercises the real network path: a pool
// wired to obs.Serve, scraped over TCP while jobs run.
func TestPoolLiveScrapeEndToEnd(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 2, Timeout: time.Second, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", ob, obs.HandlerOpts{Ready: p.Ready})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.Submit("net-user", "echo", "hello"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("live page malformed: %v", err)
	}
	if !bytes.Contains(body, []byte(`pool_tool_jobs_total{tool="echo"} 10`)) {
		t.Errorf("live page missing per-tool series:\n%s", body)
	}
	resp, err = http.Get(srv.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("live /readyz = %d", resp.StatusCode)
	}
}
