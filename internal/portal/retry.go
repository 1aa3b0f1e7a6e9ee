package portal

import (
	"errors"
	"fmt"
	"time"
)

// ErrTransient marks a tool failure as retryable: the input was fine
// but the attempt hit a passing condition (resource blip, injected
// fault, lost race). Tools and wrappers signal it by returning an
// error that wraps ErrTransient — see MarkTransient. The pool retries
// transient failures under its RetryPolicy; everything else (parse
// errors, timeouts, panics) fails the job on the first attempt.
var ErrTransient = errors.New("transient failure")

// MarkTransient wraps err so IsTransient reports true for it. A nil
// err is returned unchanged.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// RetryPolicy controls how the pool retries transient failures:
// exponential backoff from BaseDelay, doubling with no cap, with
// multiplicative jitter so a burst of failing jobs doesn't retry in
// lockstep. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job, including
	// the first; values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt k
	// (1-based retry index) waits BaseDelay << (k-1).
	BaseDelay time.Duration
	// JitterFrac in [0, 1] scales each delay by a random factor in
	// [1-JitterFrac, 1+JitterFrac]. 0 disables jitter.
	JitterFrac float64
}

// Delay returns the backoff before retry number k (1-based: k=1 is
// the wait between the first failure and the second attempt). u must
// be a uniform sample in [0, 1); passing the same u reproduces the
// same delay, which keeps seeded fault sweeps deterministic.
func (rp RetryPolicy) Delay(k int, u float64) time.Duration {
	if k < 1 {
		k = 1
	}
	d := rp.BaseDelay << (k - 1)
	if rp.JitterFrac > 0 {
		scale := 1 + rp.JitterFrac*(2*u-1)
		if scale < 0 {
			scale = 0
		}
		d = time.Duration(float64(d) * scale)
	}
	if d < 0 {
		d = 0
	}
	return d
}
