package portal

import (
	"errors"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

func TestBreakerStateMachine(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(1000, 0).UTC(), 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second}, clk.Now)

	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	// Successes keep it closed and reset the failure run.
	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow: %v", err)
		}
		b.Record(i%2 == 0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("interleaved failures tripped it: %v", b.State())
	}
	// Three consecutive failures trip it open.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow before trip: %v", err)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 fails = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open Allow = %v, want ErrCircuitOpen", err)
	}

	// Cooldown elapses: half-open admits exactly one probe at a time.
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe allowed: %v", err)
	}
	// One probe success closes it.
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after a probe success = %v, want closed", b.State())
	}

	// Trip again; a failing half-open probe re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Record(false)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second trip: %v", err)
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should re-open, state = %v", b.State())
	}
}

func TestBreakerReleaseReturnsProbeSlot(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(1000, 0).UTC(), 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, clk.Now)
	b.Allow()
	b.Record(false)
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	// The probe job was shed before running (queue full): Release
	// must free the slot for the next submission.
	b.Release()
	if err := b.Allow(); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerDisabledAndStaleRecord(t *testing.T) {
	// FailureThreshold <= 0 disables breaking entirely.
	b := NewBreaker(BreakerConfig{}, nil)
	for i := 0; i < 100; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("disabled breaker rejected a job: %v", err)
		}
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("disabled breaker state = %v", b.State())
	}
	// A nil breaker (unregistered tool path) is a no-op too.
	var nb *Breaker
	if err := nb.Allow(); err != nil {
		t.Fatalf("nil breaker Allow: %v", err)
	}
	nb.Record(true)
	nb.Release()

	// Stale Record while open (job admitted pre-trip, finished
	// post-trip) must not disturb the open state or cooldown.
	clk := obs.NewFakeClock(time.Unix(1000, 0).UTC(), 0)
	b2 := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute}, clk.Now)
	b2.Allow()
	b2.Allow() // two admitted while closed
	b2.Record(false)
	if b2.State() != BreakerOpen {
		t.Fatalf("state = %v", b2.State())
	}
	b2.Record(true) // stale success arrives after the trip
	if b2.State() != BreakerOpen {
		t.Fatalf("stale record changed state to %v", b2.State())
	}
}
