package portal

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned by Pool.Submit when a tool's circuit
// breaker is shedding load: the tool has failed persistently and the
// pool refuses new jobs for it until the cooldown elapses and a
// half-open probe succeeds. Distinct from ErrQueueFull so callers can
// tell "this tool is sick" from "the whole portal is saturated".
var ErrCircuitOpen = errors.New("circuit open: tool is shedding load")

// BreakerState is the classic three-state circuit-breaker machine.
// Its values are what the portal_breaker_state{tool} gauge reports.
type BreakerState int

const (
	// BreakerClosed: healthy, all jobs admitted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: tripped, all jobs rejected until Cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; a limited number of probe
	// jobs are admitted to test recovery.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig sizes a per-tool circuit breaker. The zero value is
// normalized by withDefaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the
	// breaker open. <= 0 disables the breaker entirely.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	return c
}

// Breaker is one tool's circuit breaker: closed while healthy, open
// after FailureThreshold consecutive failures, half-open (one probe
// in flight at a time) once the cooldown elapses. It is safe for
// concurrent use; time comes from the injected clock so tests drive
// cooldowns without sleeping.
type Breaker struct {
	mu    sync.Mutex
	cfg   BreakerConfig
	clock func() time.Time

	state        BreakerState
	fails        int       // consecutive failures while closed
	openedAt     time.Time // when the breaker last tripped open
	probeFlights int       // admitted, not-yet-recorded half-open probes

	// onTransition, when set, observes every state change; the pool
	// sets it at Register, before publishing the breaker, to thread
	// breaker flips into obs counters/events.
	onTransition func(from, to BreakerState)
}

// NewBreaker builds a breaker on the given clock (time.Now when nil).
func NewBreaker(cfg BreakerConfig, clock func() time.Time) *Breaker {
	if clock == nil {
		clock = time.Now
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

// State returns the current state (transitioning open → half-open if
// the cooldown has elapsed, so callers see the effective state).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// disabled reports whether breaking is turned off by config.
func (b *Breaker) disabled() bool { return b.cfg.FailureThreshold <= 0 }

// maybeHalfOpen transitions open → half-open when the cooldown has
// elapsed. Callers must hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == BreakerOpen && b.clock().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transition(BreakerHalfOpen)
		b.probeFlights = 0
	}
}

// transition flips the state and fires the observer callback.
// Callers must hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow asks whether a new job for this tool may run. It returns nil
// to admit the job (the caller must pair it with Record, or Release
// if the job is shed before running) and ErrCircuitOpen to reject it.
func (b *Breaker) Allow() error {
	if b == nil || b.disabled() {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		// One probe in flight at a time: recovery is tested gently
		// instead of stampeding a barely-healthy tool.
		if b.probeFlights > 0 {
			return ErrCircuitOpen
		}
		b.probeFlights++
		return nil
	default:
		return ErrCircuitOpen
	}
}

// Release undoes an Allow whose job never ran (e.g. it was shed by
// queue backpressure), so a half-open probe slot isn't lost.
func (b *Breaker) Release() {
	if b == nil || b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probeFlights > 0 {
		b.probeFlights--
	}
}

// Record reports the outcome of a job previously admitted by Allow.
// Failures while closed count toward the trip threshold; any failure
// while half-open re-opens the breaker; one half-open success closes
// it.
func (b *Breaker) Record(success bool) {
	if b == nil || b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if success {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.transition(BreakerOpen)
			b.openedAt = b.clock()
			b.fails = 0
		}
	case BreakerHalfOpen:
		if b.probeFlights > 0 {
			b.probeFlights--
		}
		if success {
			b.transition(BreakerClosed)
			b.fails = 0
			return
		}
		b.transition(BreakerOpen)
		b.openedAt = b.clock()
	default:
		// A job admitted before the trip finished after it: its
		// outcome is stale, ignore it.
	}
}
