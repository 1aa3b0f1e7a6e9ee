package portal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// firedOnce returns a timer source whose first n calls fire
// immediately and whose later calls never fire — deterministic
// timeout-path coverage with zero real sleeps.
func firedOnce(n int) func(time.Duration) <-chan time.Time {
	var mu sync.Mutex
	calls := 0
	return func(time.Duration) <-chan time.Time {
		mu.Lock()
		calls++
		fire := calls <= n
		mu.Unlock()
		if fire {
			ch := make(chan time.Time, 1)
			ch <- time.Time{}
			return ch
		}
		return make(chan time.Time) // never fires
	}
}

// TestCooperativeTimeoutNoSleep drives the timeout + grace path with
// an injected timer: the timeout fires instantly, the tool
// acknowledges cancel, and no wall-clock waiting happens.
func TestCooperativeTimeoutNoSleep(t *testing.T) {
	ob := obs.NewObserver(obs.NewFakeClock(time.Unix(100, 0).UTC(), time.Millisecond).Now)
	p := NewPool(PoolConfig{
		Workers:  1,
		Timeout:  time.Hour, // irrelevant: the fake timer fires instantly
		Observer: ob,
		Clock:    ob.Now,
		After:    firedOnce(1),
	})
	defer p.Close()
	err := p.Register(toolFunc{
		name: "coop",
		desc: "acknowledges cancellation",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-cancel
			return "stopped", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit("u", "coop", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("job should be marked timed out")
	}
	if res.Abandoned {
		t.Error("cooperative tool must not be marked abandoned")
	}
	if res.Output != "stopped" {
		t.Errorf("output = %q", res.Output)
	}
	snap := ob.Snapshot().Metrics
	if snap.Counters["pool_jobs_timeout"] != 1 {
		t.Errorf("timeout counter = %d", snap.Counters["pool_jobs_timeout"])
	}
	if snap.Counters["portal_jobs_abandoned"] != 0 {
		t.Errorf("abandoned counter = %d", snap.Counters["portal_jobs_abandoned"])
	}
}

// TestPortalConcurrent hammers Submit/History/Tools from many
// goroutines sharing one observer; run with -race.
func TestPortalConcurrent(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 4, Observer: ob})
	defer p.Close()
	err := p.Register(toolFunc{
		name: "echo",
		desc: "returns its input",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return input, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", w%3)
			for i := 0; i < iters; i++ {
				res, err := p.Submit(user, "echo", "ping")
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if res.Output != "ping" {
					t.Errorf("output = %q", res.Output)
					return
				}
				_ = p.History(user)
				_ = p.Tools()
				if i%10 == 0 {
					_ = ob.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	m := ob.Snapshot().Metrics
	if m.Counters["pool_jobs_total"] != workers*iters {
		t.Errorf("jobs total = %d, want %d", m.Counters["pool_jobs_total"], workers*iters)
	}
	if v, _ := m.CounterSeries("pool_tool_jobs_total", map[string]string{"tool": "echo"}); v != workers*iters {
		t.Errorf("per-tool counter = %d", v)
	}
	if m.Gauges["pool_jobs_inflight"] != 0 {
		t.Errorf("inflight gauge = %g, want 0", m.Gauges["pool_jobs_inflight"])
	}
	if h := m.Histograms["pool_job_seconds"]; h.Count != workers*iters {
		t.Errorf("histogram count = %d", h.Count)
	}
	var total int
	for _, u := range []string{"user0", "user1", "user2"} {
		total += len(p.History(u))
	}
	if total != workers*iters {
		t.Errorf("history total = %d, want %d", total, workers*iters)
	}
}
