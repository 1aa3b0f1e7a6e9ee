package portal

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestMarkTransient(t *testing.T) {
	base := fmt.Errorf("disk hiccup")
	err := MarkTransient(base)
	if !IsTransient(err) {
		t.Fatal("marked error not transient")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatal("errors.Is(ErrTransient) false")
	}
	if IsTransient(base) {
		t.Fatal("unmarked error reported transient")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) should stay nil")
	}
	// Wrapping again keeps it transient and keeps the cause visible.
	double := fmt.Errorf("attempt 2: %w", err)
	if !IsTransient(double) {
		t.Fatal("wrapped transient lost its mark")
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond}
	// Exponential doubling with no cap. u=0.5 is identity with zero
	// JitterFrac.
	want := []time.Duration{10, 20, 40, 80, 160}
	for i, w := range want {
		if d := rp.Delay(i+1, 0.5); d != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %vms", i+1, d, w)
		}
	}
	// Jitter scales multiplicatively and deterministically in u.
	rj := RetryPolicy{BaseDelay: 100 * time.Millisecond, JitterFrac: 0.5}
	if d := rj.Delay(1, 0); d != 50*time.Millisecond {
		t.Errorf("u=0 delay = %v, want 50ms", d)
	}
	if d := rj.Delay(1, 1); d != 150*time.Millisecond {
		t.Errorf("u=1 delay = %v, want 150ms", d)
	}
	if rj.Delay(1, 0.25) != rj.Delay(1, 0.25) {
		t.Error("same u must give same delay")
	}
	// Degenerate inputs stay sane.
	if d := rp.Delay(0, 0.5); d != 10*time.Millisecond {
		t.Errorf("Delay(0) = %v", d)
	}
	if d := (RetryPolicy{}).Delay(3, 0.5); d != 0 {
		t.Errorf("zero policy delay = %v", d)
	}
}
