package portal

import (
	"errors"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

func TestQuotaTableBurstAndRefill(t *testing.T) {
	start := time.Unix(7000, 0).UTC()
	q := newQuotaTable(2, 3) // 2 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if !q.admit("u", start) {
			t.Fatalf("burst admission %d denied", i)
		}
	}
	if q.admit("u", start) {
		t.Fatal("admission past burst allowed")
	}
	// 500ms at 2/s refills one token — exactly one more admission.
	later := start.Add(500 * time.Millisecond)
	if !q.admit("u", later) {
		t.Fatal("refilled token denied")
	}
	if q.admit("u", later) {
		t.Fatal("second token admitted after a one-token refill")
	}
	// Refill clamps at burst: a long idle stretch doesn't bank extra.
	idle := later.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !q.admit("u", idle) {
			t.Fatalf("post-idle admission %d denied", i)
		}
	}
	if q.admit("u", idle) {
		t.Fatal("idle stretch banked more than burst")
	}
	// Users have independent buckets.
	if !q.admit("v", idle) {
		t.Fatal("fresh user denied")
	}
}

func TestQuotaTableRefund(t *testing.T) {
	start := time.Unix(7000, 0).UTC()
	q := newQuotaTable(1, 1)
	if !q.admit("u", start) {
		t.Fatal("first admission denied")
	}
	if q.admit("u", start) {
		t.Fatal("bucket should be dry")
	}
	// A downstream rejection refunds the token.
	q.refund("u")
	if !q.admit("u", start) {
		t.Fatal("refunded token denied")
	}
	// Refund never overfills past burst.
	q.refund("u")
	q.refund("u")
	if !q.admit("u", start) {
		t.Fatal("single refunded token denied")
	}
	if q.admit("u", start) {
		t.Fatal("refunds overfilled the bucket")
	}
}

func TestQuotaDisabledAdmitsEverything(t *testing.T) {
	q := newQuotaTable(0, 0)
	now := time.Unix(7000, 0).UTC()
	for i := 0; i < 1000; i++ {
		if !q.admit("u", now) {
			t.Fatalf("disabled quota denied admission %d", i)
		}
	}
}

// TestPoolQuotaShedsEndToEnd drives quotas through the public API
// under the fake clock: the burst admits, the next submission sheds
// with ErrQuotaExceeded (counted per user class), and refill restores
// service — all deterministic.
func TestPoolQuotaShedsEndToEnd(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(7000, 0).UTC(), 0)
	ob := obs.NewObserver(clk.Now)
	p := NewPool(PoolConfig{
		Workers:    2,
		QuotaRate:  1, // 1 job/s
		QuotaBurst: 2,
		UserClass: func(user string) string {
			if user == "hot" {
				return "flooder"
			}
			return "default"
		},
		Observer: ob,
		Clock:    clk.Now,
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res, err := p.Submit("hot", "echo", "x"); err != nil || res.Output != "x" {
			t.Fatalf("burst job %d: %+v, %v", i, res, err)
		}
	}
	if _, err := p.Submit("hot", "echo", "x"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota err = %v, want ErrQuotaExceeded", err)
	}
	// Another user is untouched by the hot user's dry bucket.
	if res, err := p.Submit("calm", "echo", "y"); err != nil || res.Output != "y" {
		t.Fatalf("calm user: %+v, %v", res, err)
	}
	// One second refills one token.
	clk.Advance(time.Second)
	if res, err := p.Submit("hot", "echo", "z"); err != nil || res.Output != "z" {
		t.Fatalf("post-refill: %+v, %v", res, err)
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_quota_sheds_total", map[string]string{"user_class": "flooder"}); got != 1 {
		t.Fatalf("flooder sheds = %d, want 1", got)
	}
	if m.Counters["pool_jobs_shed_quota"] != 1 {
		t.Fatalf("flat quota sheds = %d, want 1", m.Counters["pool_jobs_shed_quota"])
	}
	// Quota sheds never reach the history: the job was never admitted.
	if h := p.History("hot"); len(h) != 3 {
		t.Fatalf("hot history = %d entries, want 3", len(h))
	}
}

// TestPoolFairShareShedsEndToEnd: with FairShare 0.5 on a depth-4
// queue, one user's third queued job sheds with ErrQuotaExceeded
// while the global queue still has room for others.
func TestPoolFairShareShedsEndToEnd(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{
		Workers:    1,
		QueueDepth: 4,
		FairShare:  0.5,
		Observer:   ob,
	})
	block := make(chan struct{})
	gate := toolFunc{name: "gate", desc: "blocks until released",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			<-block
			return input, nil
		}}
	if err := p.Register(gate); err != nil {
		t.Fatal(err)
	}
	// Occupy the single worker so everything below stays queued.
	warm, err := p.SubmitAsync("w", "gate", "warm")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for warm.State() != TicketRunning {
		if time.Now().After(deadline) {
			t.Fatal("warm ticket never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// a's share of the queue is 2 slots.
	for i := 0; i < 2; i++ {
		if _, err := p.SubmitAsync("a", "gate", "x"); err != nil {
			t.Fatalf("share job %d: %v", i, err)
		}
	}
	if _, err := p.SubmitAsync("a", "gate", "x"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("share-capped err = %v, want ErrQuotaExceeded", err)
	}
	// The queue itself still has room for someone else.
	if _, err := p.SubmitAsync("b", "gate", "x"); err != nil {
		t.Fatalf("other user blocked by a's share: %v", err)
	}
	close(block)
	p.Close()
	if got, _ := ob.Snapshot().Metrics.CounterSeries("pool_quota_sheds_total",
		map[string]string{"user_class": "default"}); got != 1 {
		t.Fatalf("share sheds = %d, want 1", got)
	}
}
