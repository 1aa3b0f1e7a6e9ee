// Ticket-lifecycle edge cases: Wait after completion and double-Wait,
// cancel while queued and while running, deadlines expiring in all
// three places (queued, running, draining) deterministically under
// fake timers, deadlines shorter than a retry backoff, Close racing
// SubmitAsync — goroutine-leak-checked where runaways are involved.
// External package so the tests compose internal/fault's Stall class
// (cooperative hang-past-deadline) with the public API only.
package portal_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/fault"
	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

// timerHub is a deterministic timer source: after(d) parks a channel
// under key d and fire(d) releases every parked waiter for that
// duration. Tests pick distinct durations for the deadline, timeout,
// and backoff timers, then fire exactly the one they mean — no real
// sleeps, no racing wall clocks.
type timerHub struct {
	mu      sync.Mutex
	waiting map[time.Duration][]chan time.Time
}

func newTimerHub() *timerHub {
	return &timerHub{waiting: map[time.Duration][]chan time.Time{}}
}

func (h *timerHub) after(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	h.mu.Lock()
	h.waiting[d] = append(h.waiting[d], ch)
	h.mu.Unlock()
	return ch
}

func (h *timerHub) fire(d time.Duration) {
	h.mu.Lock()
	chs := h.waiting[d]
	h.waiting[d] = nil
	h.mu.Unlock()
	for _, ch := range chs {
		ch <- time.Time{}
	}
}

// count reports how many timers are parked on duration d — the "is
// the code in its backoff/budget select yet?" probe.
func (h *timerHub) count(d time.Duration) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.waiting[d])
}

// waitTicketState polls until the ticket reaches the wanted state.
func waitTicketState(t *testing.T, tk *portal.Ticket, want portal.TicketState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tk.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("ticket never reached state %v (now %v)", want, tk.State())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitHubTimer polls until n timers are parked on duration d.
func waitHubTimer(t *testing.T, hub *timerHub, d time.Duration, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for hub.count(d) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timer for %v never registered", d)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTicketWaitAfterCompletionAndDoubleWait(t *testing.T) {
	p := portal.NewPool(portal.PoolConfig{Workers: 2, Observer: obs.NewObserver(nil)})
	defer p.Close()
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsync("u", "echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(nil)
	if err != nil || res.Output != "hello" {
		t.Fatalf("Wait = %+v, %v", res, err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("Done channel not closed after completion")
	}
	// Wait after completion, repeatedly and under a context: always
	// the same terminal snapshot.
	for i := 0; i < 3; i++ {
		again, err := tk.Wait(context.Background())
		if err != nil || again.Output != "hello" || again.Input != "hello" {
			t.Fatalf("re-Wait %d = %+v, %v", i, again, err)
		}
	}
	if st, res, err := tk.Status(); st != portal.TicketDone || err != nil || res.Output != "hello" {
		t.Fatalf("Status = %v, %+v, %v", st, res, err)
	}
}

func TestTicketWaitContextExpiry(t *testing.T) {
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: obs.NewObserver(nil)})
	defer p.Close()
	rt := releaseTool{release: make(chan struct{})}
	if err := p.Register(rt); err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsync("u", "runaway", "x")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-context Wait err = %v", err)
	}
	// The context only bounded the Wait, not the job: it finishes and
	// a later Wait observes it.
	close(rt.release)
	res, err := tk.Wait(nil)
	if err != nil || res.Output != "late" {
		t.Fatalf("post-release Wait = %+v, %v", res, err)
	}
}

func TestTicketCancelQueued(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob})
	rt := releaseTool{release: make(chan struct{})}
	if err := p.Register(rt); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	blocker, err := p.SubmitAsync("a", "runaway", "x")
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, blocker, portal.TicketRunning)
	tk, err := p.SubmitAsync("b", "echo", "never-runs")
	if err != nil {
		t.Fatal(err)
	}
	tk.Cancel()
	tk.Cancel() // idempotent
	res, werr := tk.Wait(nil)
	if !errors.Is(werr, portal.ErrCancelled) {
		t.Fatalf("cancelled Wait err = %v", werr)
	}
	if res.Err == "" || res.Output != "" {
		t.Fatalf("cancelled result = %+v", res)
	}
	if st := tk.State(); st != portal.TicketDone {
		t.Fatalf("state = %v", st)
	}
	close(rt.release)
	p.Close()
	// A cancelled-while-queued ticket never ran: no history entry.
	if h := p.History("b"); len(h) != 0 {
		t.Fatalf("history for b = %d entries, want 0", len(h))
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "cancelled"}); got != 1 {
		t.Fatalf("cancelled tickets = %d, want 1", got)
	}
	if got, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "admitted"}); got != 2 {
		t.Fatalf("admitted tickets = %d, want 2", got)
	}
}

func TestTicketCancelWhileRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	ob := obs.NewObserver(nil)
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob})
	// Stall: blocks past any deadline but yields to cancellation —
	// cancel must terminate it through quit without abandoning it.
	inj := fault.Script(echoTool{}, fault.Stall)
	if err := p.Register(inj); err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsync("u", "echo", "x")
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, tk, portal.TicketRunning)
	tk.Cancel()
	res, werr := tk.Wait(nil)
	if !errors.Is(werr, portal.ErrCancelled) {
		t.Fatalf("Wait err = %v", werr)
	}
	if res.Abandoned {
		t.Fatalf("cooperative stall was abandoned: %+v", res)
	}
	if res.TimedOut {
		t.Fatalf("cancel must not be marked as timeout: %+v", res)
	}
	// The job ran, so it is part of the user's record.
	if h := p.History("u"); len(h) != 1 || h[0].Err == "" {
		t.Fatalf("history = %+v, want one failed entry", h)
	}
	// Cancellation is not the tool's fault: breaker stays closed.
	if st, _ := p.BreakerState("echo"); st != portal.BreakerClosed {
		t.Fatalf("breaker = %v, want closed", st)
	}
	p.Close()
	waitGoroutines(t, base)
}

func TestTicketDeadlineExpiresQueued(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(8000, 0).UTC(), 0)
	ob := obs.NewObserver(clk.Now)
	hub := newTimerHub()
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob, Clock: clk.Now, After: hub.after})
	rt := releaseTool{release: make(chan struct{})}
	if err := p.Register(rt); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	blocker, err := p.SubmitAsync("a", "runaway", "x")
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, blocker, portal.TicketRunning)
	// Deadline 50ms; the watchdog timer never fires (hub stays quiet)
	// — expiry must still happen, deterministically, from the pop-time
	// clock check.
	tk, err := p.SubmitAsyncOpts("b", "echo", "y", portal.TicketOpts{Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	close(rt.release) // worker finishes the blocker, then pops b past its deadline
	res, werr := tk.Wait(nil)
	if !errors.Is(werr, portal.ErrDeadline) {
		t.Fatalf("Wait err = %v, want ErrDeadline", werr)
	}
	if res.Output != "" || res.Err == "" {
		t.Fatalf("expired result = %+v", res)
	}
	p.Close()
	if h := p.History("b"); len(h) != 0 {
		t.Fatalf("expired-queued ticket left history: %+v", h)
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_deadline_expiries_total", map[string]string{"where": "queued"}); got != 1 {
		t.Fatalf("queued expiries = %d, want 1", got)
	}
	if got, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "expired"}); got != 1 {
		t.Fatalf("expired tickets = %d, want 1", got)
	}
}

func TestTicketDeadlineExpiresRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	ob := obs.NewObserver(nil)
	hub := newTimerHub()
	const deadline = 75 * time.Millisecond
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob, After: hub.after})
	inj := fault.Script(echoTool{}, fault.Stall)
	if err := p.Register(inj); err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsyncOpts("u", "echo", "x", portal.TicketOpts{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, tk, portal.TicketRunning)
	waitHubTimer(t, hub, deadline, 1)
	hub.fire(deadline) // the watchdog catches a mid-run expiry
	res, werr := tk.Wait(nil)
	if !errors.Is(werr, portal.ErrDeadline) {
		t.Fatalf("Wait err = %v, want ErrDeadline", werr)
	}
	if res.Abandoned || res.TimedOut {
		t.Fatalf("cooperative stall mishandled: %+v", res)
	}
	// It ran: the record exists, but the healthy tool's breaker is
	// untouched — a user deadline is not a tool failure.
	if h := p.History("u"); len(h) != 1 {
		t.Fatalf("history = %d entries, want 1", len(h))
	}
	if st, _ := p.BreakerState("echo"); st != portal.BreakerClosed {
		t.Fatalf("breaker = %v, want closed", st)
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_deadline_expiries_total", map[string]string{"where": "running"}); got != 1 {
		t.Fatalf("running expiries = %d, want 1", got)
	}
	p.Close()
	waitGoroutines(t, base)
}

func TestTicketDeadlineShorterThanRetryBackoff(t *testing.T) {
	ob := obs.NewObserver(nil)
	hub := newTimerHub()
	const deadline = 75 * time.Millisecond
	const backoff = time.Hour
	p := portal.NewPool(portal.PoolConfig{
		Workers:  1,
		Retry:    portal.RetryPolicy{MaxAttempts: 5, BaseDelay: backoff},
		Observer: ob,
		After:    hub.after,
	})
	inj := fault.Script(echoTool{}, fault.Transient)
	if err := p.Register(inj); err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitAsyncOpts("u", "echo", "x", portal.TicketOpts{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 fails transiently; the worker parks in its backoff
	// sleep (1h — far past the 75ms deadline). Expiry must cut the
	// backoff short instead of letting the ticket sleep through it.
	waitHubTimer(t, hub, backoff, 1)
	waitHubTimer(t, hub, deadline, 1)
	hub.fire(deadline)
	res, werr := tk.Wait(nil)
	if !errors.Is(werr, portal.ErrDeadline) {
		t.Fatalf("Wait err = %v, want ErrDeadline", werr)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (backoff aborted)", res.Attempts)
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_deadline_expiries_total", map[string]string{"where": "running"}); got != 1 {
		t.Fatalf("running expiries = %d, want 1", got)
	}
	p.Close()
}

func TestCloseDrainsQueuedTickets(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob})
	rt := releaseTool{release: make(chan struct{})}
	if err := p.Register(rt); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	blocker, err := p.SubmitAsync("a", "runaway", "x")
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, blocker, portal.TicketRunning)
	users := []string{"b", "c", "d"}
	var queued []*portal.Ticket
	for _, u := range users {
		tk, err := p.SubmitAsync(u, "echo", "job-"+u)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close has begun: new admissions are rejected…
	deadlineAt := time.Now().Add(10 * time.Second)
	for p.Ready() == nil {
		if time.Now().After(deadlineAt) {
			t.Fatal("pool never reported closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := p.SubmitAsync("e", "echo", "late"); !errors.Is(err, portal.ErrPoolClosed) {
		t.Fatalf("post-close SubmitAsync err = %v", err)
	}
	// …but every queued ticket still completes: that is the drain.
	close(rt.release)
	<-closed
	for i, tk := range queued {
		res, err := tk.Wait(nil)
		if err != nil || res.Output != "job-"+users[i] {
			t.Fatalf("drained ticket %s = %+v, %v", users[i], res, err)
		}
		if h := p.History(users[i]); len(h) != 1 {
			t.Fatalf("history for %s = %d entries", users[i], len(h))
		}
	}
	m := ob.Snapshot().Metrics
	admitted, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "admitted"})
	completed, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "completed"})
	if admitted != 4 || completed != 4 {
		t.Fatalf("admitted %d / completed %d, want 4/4 (no ticket lost)", admitted, completed)
	}
}

func TestCloseExpiresQueuedTicketWhileDraining(t *testing.T) {
	base := runtime.NumGoroutine()
	ob := obs.NewObserver(nil)
	hub := newTimerHub()
	const deadline = 75 * time.Millisecond
	p := portal.NewPool(portal.PoolConfig{Workers: 1, Observer: ob, After: hub.after})
	inj := fault.Script(echoTool{}, fault.Stall)
	if err := p.Register(inj); err != nil {
		t.Fatal(err)
	}
	running, err := p.SubmitAsync("a", "echo", "x")
	if err != nil {
		t.Fatal(err)
	}
	waitTicketState(t, running, portal.TicketRunning)
	queued, err := p.SubmitAsyncOpts("b", "echo", "y", portal.TicketOpts{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	waitUntil := time.Now().Add(10 * time.Second)
	for p.Ready() == nil {
		if time.Now().After(waitUntil) {
			t.Fatal("pool never reported closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The stalled worker holds the drain open; the queued ticket's
	// deadline lands during it and expires the ticket where it waits.
	waitHubTimer(t, hub, deadline, 1)
	hub.fire(deadline)
	if _, err := queued.Wait(nil); !errors.Is(err, portal.ErrDeadline) {
		t.Fatalf("queued ticket err = %v, want ErrDeadline", err)
	}
	m := ob.Snapshot().Metrics
	if got, _ := m.CounterSeries("pool_deadline_expiries_total", map[string]string{"where": "draining"}); got != 1 {
		t.Fatalf("draining expiries = %d, want 1", got)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a worker was still stalled")
	default:
	}
	// Release the worker: the drain then finishes and Close returns.
	running.Cancel()
	<-closed
	if _, err := running.Wait(nil); !errors.Is(err, portal.ErrCancelled) {
		t.Fatalf("running ticket err = %v, want ErrCancelled", err)
	}
	waitGoroutines(t, base)
}

func TestCloseRacingSubmitAsync(t *testing.T) {
	ob := obs.NewObserver(nil)
	p := portal.NewPool(portal.PoolConfig{Workers: 4, QueueDepth: 64, Observer: ob})
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	const users, jobs = 8, 50
	var mu sync.Mutex
	var admitted []*portal.Ticket
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := string(rune('a' + u))
			for i := 0; i < jobs; i++ {
				tk, err := p.SubmitAsync(user, "echo", "x")
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, tk)
					mu.Unlock()
				case errors.Is(err, portal.ErrPoolClosed),
					errors.Is(err, portal.ErrQueueFull):
					// both legal while closing / under load
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}(u)
	}
	// Close races the submitters from the first moment.
	p.Close()
	wg.Wait()
	// Every admitted ticket must be terminal and completed — Close
	// never strands or loses one.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, tk := range admitted {
		res, err := tk.Wait(ctx)
		if err != nil || res.Output != "x" {
			t.Fatalf("admitted ticket %d after Close: %+v, %v", i, res, err)
		}
	}
	m := ob.Snapshot().Metrics
	adm, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "admitted"})
	comp, _ := m.CounterSeries("pool_tickets_total", map[string]string{"state": "completed"})
	if adm != int64(len(admitted)) || comp != adm {
		t.Fatalf("tickets admitted metric %d (slice %d) / completed %d — lifecycle leak",
			adm, len(admitted), comp)
	}
}
