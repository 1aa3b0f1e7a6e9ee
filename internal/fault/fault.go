// Package fault wraps any portal.Tool with seeded, deterministic
// fault injection — the robustness counterpart to internal/xcheck's
// correctness harness. The paper's cloud portals had to survive tens
// of thousands of strangers feeding arbitrary input to fragile 80s/90s
// EDA codes; this package makes every way a tool can misbehave
// (panic, hang past cancellation, fail transiently, respond slowly,
// return garbage) reproducible from a single seed, so the pool's
// isolation machinery can be tested systematically instead of by
// anecdote.
//
// The fault class of call n is a pure function of (seed, n): two
// injectors built with the same seed and configuration inject the
// identical fault sequence, regardless of goroutine scheduling. The
// generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), the
// same fixed published algorithm internal/xcheck pins its corpus to,
// so fault plans are stable across Go releases.
package fault

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlsicad/internal/portal"
)

// Class is one injectable failure mode.
type Class int

const (
	// None passes the call through to the wrapped tool untouched.
	None Class = iota
	// Panic panics inside Tool.Run — the pool must convert it into a
	// failed JobResult instead of dying.
	Panic
	// Hang ignores cancellation entirely and blocks until the test
	// calls ReleaseHung — the runaway the portal must abandon.
	Hang
	// Transient fails with an error marked portal.ErrTransient — the
	// retry path's food.
	Transient
	// Slow delays the response before running the tool — the
	// latency-tail case; cooperative with cancellation.
	Slow
	// Garbage runs the tool but corrupts its output (no error) — the
	// silent-wrong-answer case graders must tolerate.
	Garbage
	// Stall blocks past any deadline but, unlike Hang, cooperates with
	// cancellation: it returns an error as soon as cancel closes. It
	// models a job that overruns its ticket deadline yet stops cleanly
	// when interrupted — the pool's deadline machinery must terminate
	// it without having to abandon its goroutine.
	Stall
	// Crash models the whole process dying mid-job: inside a single
	// test process it behaves like Panic (the closest in-process
	// analogue), but it is drawn from its own probability so crash
	// drills can be planned independently of ordinary tool panics. The
	// durable half of a crash — a journal write cut mid-record — is
	// injected separately with CrashWriter.
	Crash
	numClasses = int(Crash) + 1
)

func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	case Transient:
		return "transient"
	case Slow:
		return "slow"
	case Garbage:
		return "garbage"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	}
	return "unknown"
}

// Config sets the per-call probability of each fault class; the
// remainder is None. Probabilities that sum past 1 are taken in the
// order Panic, Hang, Transient, Slow, Garbage, Stall, Crash. (New
// classes are always appended, so configurations that leave them zero
// draw the identical plan they did before the class existed — pinned
// fault plans stay valid.)
type Config struct {
	Panic, Hang, Transient, Slow, Garbage, Stall, Crash float64
	// SlowDelay is the injected latency for Slow calls (default 1ms).
	SlowDelay time.Duration
}

// Injector wraps a Tool with a fault plan. It is itself a
// portal.Tool, safe for concurrent use.
type Injector struct {
	tool   portal.Tool
	seed   uint64
	cfg    Config
	script []Class // when non-nil, cycled instead of the seeded plan

	calls  atomic.Uint64             // next call index
	counts [numClasses]atomic.Uint64 // injected-fault tally per class

	releaseOnce sync.Once
	release     chan struct{} // closed by ReleaseHung

	mu    sync.Mutex
	sleep func(time.Duration) <-chan time.Time
}

// Wrap builds a seeded probabilistic injector around t.
func Wrap(t portal.Tool, seed uint64, cfg Config) *Injector {
	if cfg.SlowDelay <= 0 {
		cfg.SlowDelay = time.Millisecond
	}
	return &Injector{tool: t, seed: seed, cfg: cfg,
		release: make(chan struct{}), sleep: time.After}
}

// Script builds an injector that replays the given fault classes in
// order, cycling when exhausted — for tests that need an exact
// failure schedule (e.g. "fail twice, then recover").
func Script(t portal.Tool, classes ...Class) *Injector {
	in := Wrap(t, 0, Config{})
	in.script = append([]Class(nil), classes...)
	return in
}

// SetSleep injects the timer used for Slow faults; nil restores
// time.After. No program calls it: it is the test seam that lets the
// tests of Slow faults run without real latency.
func (in *Injector) SetSleep(sleep func(time.Duration) <-chan time.Time) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if sleep == nil {
		sleep = time.After
	}
	in.sleep = sleep
}

// Name returns the wrapped tool's name: the injector impersonates it.
func (in *Injector) Name() string { return in.tool.Name() }

// Describe labels the wrapping so portal listings stay honest.
func (in *Injector) Describe() string {
	return in.tool.Describe() + " [fault-injected]"
}

// ReleaseHung unblocks every past and future Hang call; they return
// an error result. Tests call it before goroutine-leak checks.
func (in *Injector) ReleaseHung() {
	in.releaseOnce.Do(func() { close(in.release) })
}

// Counts returns how many calls each class was injected into.
func (in *Injector) Counts() map[Class]uint64 {
	out := map[Class]uint64{}
	for c := 0; c < numClasses; c++ {
		if n := in.counts[c].Load(); n > 0 {
			out[Class(c)] = n
		}
	}
	return out
}

// ClassAt returns the fault class for call index n (0-based). It is
// deterministic in (seed, n, config): the whole fault plan of a run
// is reproducible from the seed alone.
func (in *Injector) ClassAt(n uint64) Class {
	if in.script != nil {
		return in.script[n%uint64(len(in.script))]
	}
	// One SplitMix64 scramble of seed⊕f(n) gives the call's uniform
	// draw; threshold it through the configured probabilities.
	z := in.seed ^ (n+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	for _, th := range []struct {
		p float64
		c Class
	}{
		{in.cfg.Panic, Panic},
		{in.cfg.Hang, Hang},
		{in.cfg.Transient, Transient},
		{in.cfg.Slow, Slow},
		{in.cfg.Garbage, Garbage},
		{in.cfg.Stall, Stall},
		{in.cfg.Crash, Crash},
	} {
		if u < th.p {
			return th.c
		}
		u -= th.p
	}
	return None
}

// Run implements portal.Tool: it draws the call's fault class from
// the plan and misbehaves accordingly.
func (in *Injector) Run(input string, cancel <-chan struct{}) (string, error) {
	n := in.calls.Add(1) - 1
	c := in.ClassAt(n)
	in.counts[c].Add(1)
	switch c {
	case Panic:
		panic(fmt.Sprintf("fault: injected panic (call %d, seed %d)", n, in.seed))
	case Crash:
		panic(fmt.Sprintf("fault: injected crash (call %d, seed %d)", n, in.seed))
	case Hang:
		// Hang-past-cancel: ignore the cancel channel entirely. The
		// portal must abandon us; we unblock only on ReleaseHung.
		<-in.release
		return "", fmt.Errorf("fault: hung call %d released", n)
	case Transient:
		return "", portal.MarkTransient(
			fmt.Errorf("fault: injected transient failure (call %d, seed %d)", n, in.seed))
	case Slow:
		in.mu.Lock()
		sleep := in.sleep
		in.mu.Unlock()
		select {
		case <-sleep(in.cfg.SlowDelay):
		case <-cancel:
			return "", fmt.Errorf("fault: slow call %d cancelled", n)
		}
		return in.tool.Run(input, cancel)
	case Garbage:
		out, _ := in.tool.Run(input, cancel)
		return garble(out, in.seed, n), nil
	case Stall:
		// Stall-past-deadline: block indefinitely but yield promptly to
		// cancellation (or ReleaseHung), unlike Hang.
		select {
		case <-cancel:
			return "", fmt.Errorf("fault: stalled call %d cancelled", n)
		case <-in.release:
			return "", fmt.Errorf("fault: stalled call %d released", n)
		}
	default:
		return in.tool.Run(input, cancel)
	}
}

// garble deterministically corrupts out for call n: a recognizable
// marker plus a scrambled, truncated echo of the real output.
func garble(out string, seed, n uint64) string {
	z := seed ^ (n+0x51ed2701)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	keep := len(out) / 2
	var b strings.Builder
	fmt.Fprintf(&b, "@@GARBLED %016x@@\n", z)
	for i := 0; i < keep; i++ {
		ch := out[i]
		if ch >= '0' && ch <= '9' {
			ch = '0' + ('9'-ch)%10
		}
		b.WriteByte(ch)
	}
	return b.String()
}
