package portal

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// echoTool returns its input; the pool's healthy-path workhorse.
func echoTool() Tool {
	return toolFunc{name: "echo", desc: "returns its input",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return input, nil
		}}
}

func TestPoolSubmitAndHistory(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 4, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(echoTool()); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if got := p.Tools(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("Tools() = %v", got)
	}
	for i := 0; i < 5; i++ {
		res, err := p.Submit("alice", "echo", fmt.Sprintf("msg%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != fmt.Sprintf("msg%d", i) || res.Err != "" {
			t.Fatalf("res = %+v", res)
		}
		if res.Attempts != 1 {
			t.Fatalf("attempts = %d, want 1", res.Attempts)
		}
	}
	h := p.History("alice")
	if len(h) != 5 {
		t.Fatalf("history = %d entries", len(h))
	}
	if h[0].Output != "msg4" || h[4].Output != "msg0" {
		t.Fatalf("history not newest-first: %v ... %v", h[0].Output, h[4].Output)
	}
	if len(p.History("ghost")) != 0 {
		t.Fatal("unknown user should have empty history")
	}
	m := ob.Snapshot().Metrics
	if m.Counters["pool_jobs_total"] != 5 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if v, ok := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": "echo"}); !ok || v != 5 {
		t.Fatalf("pool_tool_jobs_total{tool=echo} = %d (present %v)", v, ok)
	}
	if m.Gauges["pool_queue_depth"] != 0 || m.Gauges["pool_jobs_inflight"] != 0 {
		t.Fatalf("gauges not drained: %v", m.Gauges)
	}
}

func TestPoolUnknownTool(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, Observer: ob})
	defer p.Close()
	if _, err := p.Submit("u", "vivado", ""); err == nil ||
		!strings.Contains(err.Error(), "no tool") {
		t.Fatalf("err = %v", err)
	}
	if c := ob.Snapshot().Metrics.Counters["pool_jobs_unknown_tool"]; c != 1 {
		t.Fatalf("unknown-tool counter = %d", c)
	}
}

func TestPoolClosedSubmit(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Submit("u", "echo", "x"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolQueueBackpressure is the acceptance-criteria test: with all
// workers saturated by hanging tools and the queue full, the next
// Submit gets ErrQueueFull immediately instead of blocking, and the
// shed is counted.
func TestPoolQueueBackpressure(t *testing.T) {
	const workers, depth = 2, 2
	release := make(chan struct{})
	started := make(chan struct{}, workers)
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: workers, QueueDepth: depth, Timeout: time.Hour, Observer: ob})
	defer p.Close()
	err := p.Register(toolFunc{name: "block", desc: "holds its worker",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			started <- struct{}{}
			<-release
			return "done", nil
		}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make(chan error, workers+depth)
	submitAsync := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := p.Submit(fmt.Sprintf("u%d", i), "block", "x")
				if err == nil && res.Output != "done" {
					err = fmt.Errorf("output = %q", res.Output)
				}
				results <- err
			}(i)
		}
	}
	// Saturate both workers...
	submitAsync(workers)
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started the blocking jobs")
		}
	}
	// ...then fill the queue (poll the depth gauge, no sleeps)...
	submitAsync(depth)
	deadline := time.Now().Add(5 * time.Second)
	for ob.Snapshot().Metrics.Gauges["pool_queue_depth"] < depth {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the next submission must shed immediately.
	begin := time.Now()
	_, err = p.Submit("victim", "block", "x")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if waited := time.Since(begin); waited > time.Second {
		t.Fatalf("shed submission blocked for %v", waited)
	}
	m := ob.Snapshot().Metrics
	if m.Counters["pool_jobs_shed_queue"] != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Counters["pool_jobs_shed_queue"])
	}

	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("queued job failed: %v", err)
		}
	}
}

// TestPoolPanicIsolation: a crashing Tool.Run becomes a failed
// JobResult, not a dead process.
func TestPoolPanicIsolation(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 2, Observer: ob})
	defer p.Close()
	err := p.Register(toolFunc{name: "boom", desc: "always panics",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			panic("index out of range in student input")
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "boom", "x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Err, "tool panicked") ||
		!strings.Contains(res.Err, "index out of range") {
		t.Fatalf("res.Err = %q", res.Err)
	}
	m := ob.Snapshot().Metrics
	if m.Counters["portal_panics_recovered"] != 1 {
		t.Fatalf("panics counter = %d", m.Counters["portal_panics_recovered"])
	}
	if v, ok := m.CounterSeries("pool_tool_panics_total", map[string]string{"tool": "boom"}); !ok || v != 1 {
		t.Fatalf("pool_tool_panics_total{tool=boom} = %d (present %v)", v, ok)
	}
	if m.Counters["pool_jobs_error"] != 1 {
		t.Fatalf("error counter = %d", m.Counters["pool_jobs_error"])
	}
	// The pool keeps serving after the panic.
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Submit("u", "echo", "alive"); err != nil || res.Output != "alive" {
		t.Fatalf("pool died after panic: %v %+v", err, res)
	}
}

// flakyTool fails transiently n times, then succeeds forever.
func flakyTool(name string, failures int) Tool {
	var mu sync.Mutex
	left := failures
	return toolFunc{name: name, desc: "transient failures then success",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if left > 0 {
				left--
				return "", MarkTransient(errors.New("blip"))
			}
			return "ok:" + input, nil
		}}
}

func TestPoolRetryTransient(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, Observer: ob,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, JitterFrac: 0.5}})
	defer p.Close()
	if err := p.Register(flakyTool("flaky", 2)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "flaky", "in")
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Output != "ok:in" {
		t.Fatalf("res = %+v", res)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	m := ob.Snapshot().Metrics
	if m.Counters["pool_retries"] != 2 {
		t.Fatalf("retries = %d, want 2", m.Counters["pool_retries"])
	}
	if m.Counters["pool_jobs_total"] != 1 {
		t.Fatalf("jobs total = %d, want 1 (retries are not jobs)", m.Counters["pool_jobs_total"])
	}
	if h := p.History("u"); len(h) != 1 {
		t.Fatalf("history = %d entries, want 1", len(h))
	}
}

func TestPoolRetryExhausted(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, Observer: ob,
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}})
	defer p.Close()
	if err := p.Register(flakyTool("flaky", 100)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "flaky", "in")
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" || res.Attempts != 2 {
		t.Fatalf("res = %+v, want exhausted after 2 attempts", res)
	}
	// Non-transient errors must not be retried.
	err = p.Register(toolFunc{name: "hard", desc: "terminal failure",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return "", errors.New("parse error")
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Submit("u", "hard", "in")
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("terminal failure retried: attempts = %d", res.Attempts)
	}
}

// TestPoolBreakerTripShedRecover is the acceptance-criteria breaker
// test: persistent failure trips the breaker within its window, open
// sheds with a distinct error, and recovery flows through half-open
// back to closed once the fault clears.
func TestPoolBreakerTripShedRecover(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(5000, 0).UTC(), 0)
	ob := obs.NewObserver(clk.Now)
	p := NewPool(PoolConfig{Workers: 1, Observer: ob, Clock: clk.Now,
		Breaker: BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second}})
	defer p.Close()

	var mu sync.Mutex
	healthy := false
	err := p.Register(toolFunc{name: "sick", desc: "fails until healed",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if !healthy {
				return "", errors.New("segfault in legacy code")
			}
			return "healed", nil
		}})
	if err != nil {
		t.Fatal(err)
	}

	// Three failing jobs trip the breaker open.
	for i := 0; i < 3; i++ {
		res, err := p.Submit("u", "sick", "x")
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Err == "" {
			t.Fatalf("job %d unexpectedly succeeded", i)
		}
	}
	if st, _ := p.BreakerState("sick"); st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}
	// Open: submissions shed with the distinct error, fast.
	_, err = p.Submit("u", "sick", "x")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	m := ob.Snapshot().Metrics
	if m.Counters["pool_jobs_shed_breaker"] != 1 {
		t.Fatalf("shed counter = %d", m.Counters["pool_jobs_shed_breaker"])
	}
	if m.Counters["pool_breaker_open"] != 1 {
		t.Fatalf("open transitions = %d", m.Counters["pool_breaker_open"])
	}
	if m.Counters["pool_jobs_total"] != 3 {
		t.Fatalf("shed job was executed: total = %d", m.Counters["pool_jobs_total"])
	}

	// Fault clears, cooldown elapses: the half-open probe closes it.
	mu.Lock()
	healthy = true
	mu.Unlock()
	clk.Advance(10 * time.Second)
	res, err := p.Submit("u", "sick", "x")
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if res.Err != "" || res.Output != "healed" {
		t.Fatalf("probe result = %+v", res)
	}
	if st, _ := p.BreakerState("sick"); st != BreakerClosed {
		t.Fatalf("breaker = %v, want closed after recovery", st)
	}
	m = ob.Snapshot().Metrics
	if m.Counters["pool_breaker_half-open"] != 1 || m.Counters["pool_breaker_closed"] != 1 {
		t.Fatalf("transition counters = %v", m.Counters)
	}
	// The breaker state flips are visible in the event log too.
	var kinds []string
	for _, e := range ob.Snapshot().Events {
		if e.Kind == "pool.breaker" {
			kinds = append(kinds, e.Fields["from"]+">"+e.Fields["to"])
		}
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(kinds) != len(want) {
		t.Fatalf("breaker events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("breaker events = %v, want %v", kinds, want)
		}
	}
	if _, ok := p.BreakerState("nope"); ok {
		t.Fatal("BreakerState for unknown tool should report !ok")
	}
}

// TestPoolTimeoutAndAbandon drives the pool's timeout machinery with
// the injected timer source (no wall-clock waiting) and checks the
// shared abandonment accounting.
func TestPoolTimeoutAndAbandon(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 1, Timeout: time.Hour, Observer: ob,
		After: firedOnce(2)}) // timeout and grace fire instantly
	defer p.Close()
	release := make(chan struct{})
	err := p.Register(toolFunc{name: "runaway", desc: "ignores cancel",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-release
			return "late", nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "runaway", "x")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || !res.Abandoned {
		t.Fatalf("res = %+v, want timed out + abandoned", res)
	}
	if h := p.History("u"); len(h) != 1 || !h[0].Abandoned {
		t.Fatal("history must record the abandonment")
	}
	m := ob.Snapshot().Metrics
	if m.Counters["portal_jobs_abandoned"] != 1 || m.Counters["pool_jobs_timeout"] != 1 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if g := m.Gauges["portal_abandoned_inflight"]; g != 1 {
		t.Fatalf("abandoned inflight gauge = %g, want 1", g)
	}
	var abandoned []map[string]string
	for _, e := range ob.Snapshot().Events {
		if e.Kind == "portal.abandoned" {
			abandoned = append(abandoned, e.Fields)
		}
	}
	if len(abandoned) != 1 || abandoned[0]["tool"] != "runaway" || abandoned[0]["user"] != "u" {
		t.Fatalf("portal.abandoned events = %v, want one for runaway/u", abandoned)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := ob.Snapshot().Metrics
		if m.Gauges["portal_abandoned_inflight"] == 0 &&
			m.Counters["portal_abandoned_returned"] == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("abandoned runaway never drained")
}

// TestPoolHistoryConcurrent hammers many users concurrently (run with
// -race) and checks that each user's history keeps its submission
// order.
func TestPoolHistoryConcurrent(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 8, QueueDepth: 256, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	const users, jobs = 16, 25
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user%02d", u)
			for i := 0; i < jobs; i++ {
				res, err := p.Submit(user, "echo", fmt.Sprintf("%s#%03d", user, i))
				if err != nil {
					t.Errorf("%s job %d: %v", user, i, err)
					return
				}
				if res.Err != "" {
					t.Errorf("%s job %d failed: %s", user, i, res.Err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user%02d", u)
		h := p.History(user)
		if len(h) != jobs {
			t.Fatalf("%s history = %d entries, want %d", user, len(h), jobs)
		}
		for i, r := range h { // newest first
			want := fmt.Sprintf("%s#%03d", user, jobs-1-i)
			if r.Output != want {
				t.Fatalf("%s history[%d] = %q, want %q", user, i, r.Output, want)
			}
		}
	}
	if total := ob.Snapshot().Metrics.Counters["pool_jobs_total"]; total != users*jobs {
		t.Fatalf("jobs total = %d, want %d", total, users*jobs)
	}
}

// TestPoolRegisterWhileSubmitting registers tools while other
// goroutines submit to an already-registered tool and to the ones
// being registered (run with -race). Register must publish each tool
// with its breaker and labeled series already wired: every admitted
// ticket terminates and lands on its tool's pool_tool_jobs_total.
func TestPoolRegisterWhileSubmitting(t *testing.T) {
	const tools, submitters, jobs = 16, 4, 64
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 4, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	echo := echoTool().(toolFunc).run
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < tools; i++ {
			if err := p.Register(toolFunc{name: fmt.Sprintf("t%d", i), desc: "echo", run: echo}); err != nil {
				t.Error(err)
			}
		}
	}()
	var mu sync.Mutex
	admitted := map[string]int64{}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", s)
			for i := 0; i < jobs; i++ {
				tool := "echo"
				if i%2 == 1 {
					tool = fmt.Sprintf("t%d", (i/2+s)%tools)
				}
				tk, err := p.SubmitAsync(user, tool, user)
				if err != nil {
					if !strings.Contains(err.Error(), "no tool") {
						t.Errorf("%s -> %s: %v", user, tool, err)
					}
					continue
				}
				res, err := tk.Wait(nil)
				if st := tk.State(); err != nil || st != TicketDone || res.Output != user {
					t.Errorf("%s -> %s: state %v, err %v, output %q", user, tool, st, err, res.Output)
				}
				mu.Lock()
				admitted[tool]++
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	if got := p.Tools(); len(got) != tools+1 {
		t.Fatalf("Tools() = %v, want echo and t0..t%d", got, tools-1)
	}
	m := ob.Snapshot().Metrics
	for tool, n := range admitted {
		if v, _ := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": tool}); v != n {
			t.Errorf("pool_tool_jobs_total{tool=%s} = %d, want %d", tool, v, n)
		}
	}
}

// TestHistoryNPaging: the pool serves a newest-first page of at most
// n entries — the "scroll for older outputs" read path without copying
// a whole semester of history.
func TestHistoryNPaging(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		p := NewPool(PoolConfig{Workers: 1, Observer: obs.NewObserver(nil)})
		defer p.Close()
		if err := p.Register(echoTool()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := p.Submit("u", "echo", fmt.Sprintf("job%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		page := p.HistoryN("u", 2)
		if len(page) != 2 || page[0].Input != "job4" || page[1].Input != "job3" {
			t.Fatalf("page = %+v, want newest two (job4, job3)", page)
		}
		if got := p.HistoryN("u", 99); len(got) != 5 {
			t.Fatalf("over-ask returned %d entries, want all 5", len(got))
		}
		if got := p.HistoryN("u", 0); len(got) != 0 {
			t.Fatalf("zero-page returned %d entries", len(got))
		}
		if got := p.HistoryN("u", -3); len(got) != 0 {
			t.Fatalf("negative page returned %d entries", len(got))
		}
	})
}

// TestPoolHistoryLimit: the retention cap keeps only the newest
// entries, so per-user memory is bounded no matter how long the
// course runs.
func TestPoolHistoryLimit(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, HistoryLimit: 4, Observer: obs.NewObserver(nil)})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("job%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	h := p.History("u")
	// Amortized trimming retains between limit and 2*limit-1 entries.
	if len(h) < 4 || len(h) >= 8 {
		t.Fatalf("retained %d entries, want in [4, 8)", len(h))
	}
	for i, r := range h { // newest first, nothing dropped from the top
		want := fmt.Sprintf("job%02d", 19-i)
		if r.Input != want {
			t.Fatalf("history[%d].Input = %q, want %q", i, r.Input, want)
		}
	}
}

// gateSyncer is a WriteSyncer whose Sync blocks until release is
// closed; writes counts the records written so far.
type gateSyncer struct {
	release chan struct{}

	mu     sync.Mutex
	writes int
}

func (g *gateSyncer) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes++
	g.mu.Unlock()
	return len(p), nil
}

func (g *gateSyncer) Sync() error {
	<-g.release
	return nil
}

func (g *gateSyncer) written() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes
}

// TestPoolQueueDepthNeverNegative holds the admit record's Sync while
// the one worker pops the ticket and writes its start record: the
// pool_queue_depth gauge must never read below zero on the way, and
// must read zero once the pool is quiet.
func TestPoolQueueDepthNeverNegative(t *testing.T) {
	ob := obs.NewObserver(nil)
	gs := &gateSyncer{release: make(chan struct{})}
	p := NewPool(PoolConfig{Workers: 1, Observer: ob, Journal: NewJournal(gs, JournalOpts{})})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	depth := ob.Gauge("pool_queue_depth")
	low := 0.0
	sample := func() {
		if v := depth.Value(); v < low {
			low = v
		}
	}
	submitted := make(chan error, 1)
	go func() {
		_, err := p.Submit("u", "echo", "x")
		submitted <- err
	}()
	// The admit record is written and its Sync held; the worker pops the
	// ticket and writes its start record before it too waits for a Sync.
	deadline := time.Now().Add(5 * time.Second)
	for gs.written() < 2 {
		sample()
		if time.Now().After(deadline) {
			t.Fatalf("worker never wrote the start record (%d records written)", gs.written())
		}
		time.Sleep(100 * time.Microsecond)
	}
	sample()
	close(gs.release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	p.Close()
	sample()
	if low < 0 {
		t.Fatalf("pool_queue_depth read %g while the admit Sync was held, want never below 0", low)
	}
	if v := depth.Value(); v != 0 {
		t.Fatalf("pool_queue_depth = %g at quiescence, want 0", v)
	}
}
