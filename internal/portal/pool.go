// Package portal reproduces the cloud software architecture of the
// paper's Figure 4: web-style tool portals that consume an ASCII text
// file, run an EDA tool with runaway-job termination, and return ASCII
// text output to a per-user history page. The same job machinery
// backs the auto-graders.
package portal

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"vlsicad/internal/obs"
)

// ErrToolPanic marks a job whose Tool.Run panicked. The runner
// goroutine recovers the panic and converts it into a failed
// JobResult wrapping this sentinel, so one crashing submission never
// kills the portal process — the survival property the paper's cloud
// deployment needed against arbitrary student input.
var ErrToolPanic = errors.New("tool panicked")

// Tool is a text-in/text-out EDA tool. Implementations should poll
// cancel (closed on timeout) in long loops; the pool also abandons
// tools that ignore it.
type Tool interface {
	Name() string
	Describe() string
	Run(input string, cancel <-chan struct{}) (string, error)
}

// JobResult is one portal execution record.
type JobResult struct {
	Tool string
	// Input is the submitted text, kept with the record so history
	// pages can re-show what was run and harnesses can audit that no
	// submission is lost or double-completed.
	Input    string
	Output   string
	Err      string
	Duration time.Duration
	TimedOut bool
	// Abandoned marks a runaway tool that ignored cancellation past
	// the grace period: its goroutine was left running and the pool
	// returned without its output. Abandoned jobs are also counted in
	// the portal_jobs_abandoned metric and tracked live by the
	// portal_abandoned_inflight gauge.
	Abandoned bool
	// Attempts is how many attempts the job took: 1 when it succeeded
	// or failed terminally first try, >1 when the pool retried
	// transient failures, 0 for a ticket that never ran (cancelled or
	// expired while queued).
	Attempts int
	When     time.Time
	// Replayed marks a ticket that was mid-flight when the pool
	// crashed and was re-executed after RecoverPool — the at-least-
	// once marker auditors use to tell a re-run from a first run.
	Replayed bool
}

// GracePeriod is how long an attempt waits after cancellation for a
// tool to acknowledge before abandoning its goroutine.
const GracePeriod = 50 * time.Millisecond

// ErrQueueFull is returned by Pool.Submit when the bounded job queue
// is at capacity: the portal sheds the job immediately instead of
// blocking the caller — explicit backpressure, the cloud answer to
// "planet Earth is typing faster than the tools can run".
var ErrQueueFull = errors.New("portal: job queue full")

// ErrPoolClosed is returned by Pool.Submit after Close.
var ErrPoolClosed = errors.New("portal: pool closed")

// PoolConfig sizes the resilient job engine. The zero value is
// normalized to sensible defaults by NewPool.
type PoolConfig struct {
	// Workers is the number of worker goroutines executing jobs
	// (default GOMAXPROCS). Submissions do not spawn a goroutine
	// each: concurrency is capped here and excess load is queued or
	// shed.
	Workers int
	// QueueDepth bounds the pending-job queue (default 4×Workers).
	// When full, Submit returns ErrQueueFull immediately.
	QueueDepth int
	// Timeout is the per-attempt runaway limit (default 2s), enforced
	// by execTool's cancel + grace-period + abandon machinery.
	Timeout time.Duration
	// Retry governs re-running attempts that fail transiently.
	Retry RetryPolicy
	// Breaker configures the per-tool circuit breakers.
	Breaker BreakerConfig
	// Seed drives the retry-jitter RNG (default 1); a fixed seed
	// makes backoff schedules reproducible in fault sweeps.
	Seed uint64
	// HistoryLimit caps each user's retained history (0 = unlimited):
	// the memory guard for planet-scale cohorts. Oldest entries are
	// dropped first, amortized O(1) per append.
	HistoryLimit int

	// QuotaRate is each user's token-bucket admission rate in jobs
	// per second (0 = quotas disabled). A user who submits faster is
	// shed with ErrQuotaExceeded once their burst is spent.
	QuotaRate float64
	// QuotaBurst is the bucket capacity — how many jobs a user may
	// submit back-to-back before the rate limit bites (default
	// max(1, ⌊QuotaRate⌋) when quotas are enabled).
	QuotaBurst int
	// FairShare caps one user's slice of the queue as a fraction of
	// QueueDepth, in (0, 1] (default 1.0 = a user may fill the whole
	// queue). Submissions past the slice are shed with
	// ErrQuotaExceeded even when the queue has room.
	FairShare float64
	// DefaultDeadline bounds every ticket's total lifetime — queue
	// wait plus execution — unless SubmitAsyncOpts overrides it
	// (0 = no deadline). Expiry yields ErrDeadline wherever the
	// ticket is: queued, running, or draining.
	DefaultDeadline time.Duration
	// UserClass maps a user to a coarse class label for the
	// pool_quota_sheds_total{user_class} metric (nil = "default").
	// Classes keep the label cardinality bounded no matter how many
	// users exist.
	UserClass func(user string) string

	// Journal, when non-nil, makes the ticket lifecycle durable: every
	// admission and transition is framed, checksummed, written to the
	// journal's writer, and synced before it becomes observable, and
	// RecoverPool replays the log into a warm pool after a restart.
	// Nil (the default) costs the hot path nothing.
	Journal *Journal
	// Observer receives the pool's telemetry from construction on —
	// early enough that RecoverPool's replay spans and counters land
	// on it. Nil uses obs.Default().
	Observer *obs.Observer
	// Clock and After are the pool's time source and timer, used for
	// durations, timeout enforcement, retry backoff, deadlines, and
	// breaker cooldowns; tests inject fakes so recovered deadlines
	// re-arm and admission timestamps resolve deterministically.
	// Nil = real time.
	Clock func() time.Time
	After func(time.Duration) <-chan time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FairShare <= 0 || c.FairShare > 1 {
		c.FairShare = 1
	}
	if c.QuotaRate > 0 && c.QuotaBurst <= 0 {
		c.QuotaBurst = int(c.QuotaRate)
		if c.QuotaBurst < 1 {
			c.QuotaBurst = 1
		}
	}
	if c.DefaultDeadline < 0 {
		c.DefaultDeadline = 0
	}
	return c
}

// toolEntry is one registered tool with its circuit breaker and its
// labeled series: the pool's one tool table maps names to these, and
// each ticket holds its tool's entry.
type toolEntry struct {
	t  Tool
	br *Breaker
	tm *toolMetrics
}

// toolMetrics caches one tool's labeled series, resolved once at
// Register so the worker hot path pays only the child metric's atomic
// cost — never a label lookup per job.
type toolMetrics struct {
	jobs         *obs.Counter   // pool_tool_jobs_total{tool}
	retries      *obs.Counter   // pool_tool_retries_total{tool}
	panics       *obs.Counter   // pool_tool_panics_total{tool}
	shedQueue    *obs.Counter   // pool_tool_shed_total{tool,reason=queue}
	shedBreaker  *obs.Counter   // pool_tool_shed_total{tool,reason=breaker}
	shedQuota    *obs.Counter   // pool_tool_shed_total{tool,reason=quota}
	seconds      *obs.Histogram // pool_tool_job_seconds{tool}
	breakerState *obs.Gauge     // portal_breaker_state{tool}: the BreakerState value
}

// resolveToolMetrics binds one tool's labeled children on the given
// observer. Nil-safe: a nil observer yields all-nil (no-op) children.
func resolveToolMetrics(ob *obs.Observer, tool string) *toolMetrics {
	shed := ob.CounterVec("pool_tool_shed_total", "tool", "reason")
	return &toolMetrics{
		jobs:         ob.CounterVec("pool_tool_jobs_total", "tool").With(tool),
		retries:      ob.CounterVec("pool_tool_retries_total", "tool").With(tool),
		panics:       ob.CounterVec("pool_tool_panics_total", "tool").With(tool),
		shedQueue:    shed.With(tool, "queue"),
		shedBreaker:  shed.With(tool, "breaker"),
		shedQuota:    shed.With(tool, "quota"),
		seconds:      ob.HistogramVec("pool_tool_job_seconds", []string{"tool"}).With(tool),
		breakerState: ob.GaugeVec("portal_breaker_state", "tool").With(tool),
	}
}

// lifecycleMetrics caches the ticket-lifecycle series so the
// admission and completion hot paths never pay a label lookup.
type lifecycleMetrics struct {
	queueWait  *obs.Histogram  // pool_queue_wait_seconds
	admitted   *obs.Counter    // pool_tickets_total{state=admitted}
	completed  *obs.Counter    // pool_tickets_total{state=completed}
	expired    *obs.Counter    // pool_tickets_total{state=expired}
	cancelled  *obs.Counter    // pool_tickets_total{state=cancelled}
	replayed   *obs.Counter    // pool_tickets_total{state=replayed}: completed re-runs after recovery
	expiries   *obs.CounterVec // pool_deadline_expiries_total{where}
	quotaSheds *obs.CounterVec // pool_quota_sheds_total{user_class}
}

func resolveLifecycleMetrics(ob *obs.Observer) *lifecycleMetrics {
	tickets := ob.CounterVec("pool_tickets_total", "state")
	exp := ob.CounterVec("pool_deadline_expiries_total", "where")
	for _, where := range []string{"queued", "running", "draining"} {
		exp.With(where) // every site is exposed from the start, at zero
	}
	return &lifecycleMetrics{
		queueWait:  ob.Histogram("pool_queue_wait_seconds"),
		admitted:   tickets.With("admitted"),
		completed:  tickets.With("completed"),
		expired:    tickets.With("expired"),
		cancelled:  tickets.With("cancelled"),
		replayed:   tickets.With("replayed"),
		expiries:   exp,
		quotaSheds: ob.CounterVec("pool_quota_sheds_total", "user_class"),
	}
}

// TicketOpts customizes one SubmitAsyncOpts admission.
type TicketOpts struct {
	// Deadline bounds the ticket's total lifetime (queue wait plus
	// execution). Zero falls back to PoolConfig.DefaultDeadline.
	Deadline time.Duration
}

// Pool is the portal's job engine: N workers over a round-robin fair
// bounded queue and per-user history, with an async ticket lifecycle
// (SubmitAsync/Wait/Cancel, per-job deadlines), per-user admission
// quotas, panic isolation, retry with exponential backoff for
// transient failures, and per-tool circuit breakers. All telemetry
// flows through internal/obs.
type Pool struct {
	cfg PoolConfig

	// The wiring below is fixed by newPool and read without a lock.
	clock func() time.Time
	obs   *obs.Observer
	lm    *lifecycleMetrics

	mu    sync.RWMutex // guards tools; read-heavy
	tools map[string]*toolEntry

	rngMu    sync.Mutex // jitter stream has its own lock off the hot path
	rngState uint64

	fq    *fairQueue // its closed flag is the pool's
	quota *quotaTable

	// jmu is the recovery-consistency lock: it guards the sequence
	// counter, the conservation ledger, and every journal append — so
	// each transition's state change and its record commit together, and
	// the record order on disk is the jmu order. The wait for a record's
	// Sync (Journal.durable) happens after jmu is released, so
	// transitions share fsyncs. Lock order: jmu before histMu, tk.mu,
	// quota.mu, and the journal's own lock; never the reverse.
	jmu    sync.Mutex
	jr     *Journal // nil = journaling off
	seq    uint64   // last assigned ticket sequence
	ledger Ledger

	// histMu guards history. Writers already hold jmu, so it only
	// keeps History readers off jmu.
	histMu  sync.Mutex
	history map[string][]JobResult

	wg sync.WaitGroup
}

// NewPool builds the engine and starts its workers. Callers should
// Close it when done to stop the workers.
func NewPool(cfg PoolConfig) *Pool {
	p := newPool(cfg)
	p.start()
	return p
}

// newPool builds the engine without starting workers — RecoverPool
// needs the gap to install replayed state and re-enqueue tickets
// before execution begins.
func newPool(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	perUserCap := int(cfg.FairShare * float64(cfg.QueueDepth))
	if perUserCap < 1 {
		perUserCap = 1
	}
	if perUserCap > cfg.QueueDepth {
		perUserCap = cfg.QueueDepth
	}
	clock := time.Now
	if cfg.Clock != nil {
		clock = cfg.Clock
	}
	observer := obs.Default()
	if cfg.Observer != nil {
		observer = cfg.Observer
	}
	p := &Pool{
		cfg:      cfg,
		tools:    map[string]*toolEntry{},
		clock:    clock,
		obs:      observer,
		lm:       resolveLifecycleMetrics(observer),
		rngState: cfg.Seed,
		quota:    newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		jr:       cfg.Journal,
		history:  map[string][]JobResult{},
	}
	p.fq = newFairQueue(cfg.QueueDepth, perUserCap)
	p.fq.depth = observer.Gauge("pool_queue_depth")
	p.jr.bind(p.obs)
	return p
}

// poolTimer is one timer armed by Pool.timer: C fires once after the
// duration. Stop it when done waiting — a real timer that is never
// stopped stays allocated until it fires.
type poolTimer struct {
	C <-chan time.Time
	t *time.Timer // nil for an injected PoolConfig.After timer
}

// timer arms a timer for d: a stoppable real timer, or the injected
// PoolConfig.After channel.
func (p *Pool) timer(d time.Duration) poolTimer {
	if p.cfg.After != nil {
		return poolTimer{C: p.cfg.After(d)}
	}
	t := time.NewTimer(d)
	return poolTimer{C: t.C, t: t}
}

// Stop releases a real timer early; a no-op for an injected one.
func (t poolTimer) Stop() {
	if t.t != nil {
		t.t.Stop()
	}
}

// start launches the worker goroutines.
func (p *Pool) start() {
	p.wg.Add(p.cfg.Workers)
	for i := 0; i < p.cfg.Workers; i++ {
		go p.worker()
	}
}

// classOf maps a user to their quota class label.
func (p *Pool) classOf(user string) string {
	if p.cfg.UserClass == nil {
		return "default"
	}
	return p.cfg.UserClass(user)
}

// Close stops accepting submissions and drains the queue: every
// already-admitted ticket still reaches a terminal state — executing
// normally, or expiring with ErrDeadline if its deadline passes while
// draining — before the workers exit. No admitted ticket is ever
// lost: Wait on any of them returns. Blocks until the drain is done.
// Safe to call more than once.
func (p *Pool) Close() {
	p.fq.closeQueue()
	p.wg.Wait()
}

// closing reports whether Close has begun — used to label deadline
// expiries that land during the drain. The fair queue's closed flag is
// the one record of it.
func (p *Pool) closing() bool {
	p.fq.mu.Lock()
	defer p.fq.mu.Unlock()
	return p.fq.closed
}

// Register installs a tool and its circuit breaker; registering a
// duplicate name is an error.
func (p *Pool) Register(t Tool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	name := t.Name()
	if _, dup := p.tools[name]; dup {
		return fmt.Errorf("portal: tool %q already registered", name)
	}
	tm := resolveToolMetrics(p.obs, name)
	tm.breakerState.Set(float64(BreakerClosed))
	transitions := p.obs.CounterVec("pool_breaker_transitions_total", "tool", "to")
	br := NewBreaker(p.cfg.Breaker, p.clock)
	// Every flip moves the portal_breaker_state{tool} gauge, counts a
	// labeled transition, bumps the flat aggregate, and logs an event.
	br.onTransition = func(from, to BreakerState) {
		tm.breakerState.Set(float64(to))
		transitions.With(name, to.String()).Inc()
		p.obs.Counter("pool_breaker_" + to.String()).Inc()
		p.obs.Emit("pool.breaker", map[string]string{
			"tool": name, "from": from.String(), "to": to.String(),
		})
	}
	p.tools[name] = &toolEntry{t: t, br: br, tm: tm}
	return nil
}

// Tools lists the registered tool names, sorted.
func (p *Pool) Tools() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []string
	for name := range p.tools {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BreakerState reports the effective breaker state for a tool (and
// whether the tool exists) — the health column of a status page.
func (p *Pool) BreakerState(tool string) (BreakerState, bool) {
	te := p.entry(tool)
	if te == nil {
		return BreakerClosed, false
	}
	return te.br.State(), true
}

// entry returns the named tool's entry, nil when none is registered.
func (p *Pool) entry(tool string) *toolEntry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tools[tool]
}

// jitter draws a uniform sample in [0, 1) from the pool's seeded
// SplitMix64 stream for retry-backoff jitter.
func (p *Pool) jitter() float64 {
	p.rngMu.Lock()
	p.rngState += 0x9e3779b97f4a7c15
	z := p.rngState
	p.rngMu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// SubmitAsync admits a job and returns its Ticket without waiting for
// execution — poll with Status, block with Wait or Done, abort with
// Cancel. Shedding paths return immediately: ErrCircuitOpen when the
// tool's breaker is open, ErrQuotaExceeded when the user's admission
// quota or queue share is spent, ErrQueueFull when the whole queue is
// at capacity, ErrPoolClosed after Close. A nil error means the
// ticket was admitted and will reach exactly one terminal state.
func (p *Pool) SubmitAsync(user, tool, input string) (*Ticket, error) {
	return p.SubmitAsyncOpts(user, tool, input, TicketOpts{})
}

// SubmitAsyncOpts is SubmitAsync with per-ticket options (deadline).
func (p *Pool) SubmitAsyncOpts(user, tool, input string, opts TicketOpts) (*Ticket, error) {
	te := p.entry(tool)
	ob, lm := p.obs, p.lm
	if te == nil {
		ob.Counter("pool_jobs_unknown_tool").Inc()
		return nil, fmt.Errorf("portal: no tool %q", tool)
	}
	br, tm := te.br, te.tm
	if err := br.Allow(); err != nil {
		ob.Counter("pool_jobs_shed_breaker").Inc()
		tm.shedBreaker.Inc()
		ob.Emit("pool.shed", map[string]string{"tool": tool, "user": user, "reason": "breaker"})
		return nil, fmt.Errorf("portal: tool %q: %w", tool, err)
	}
	now := p.clock()
	if !p.quota.admit(user, now) {
		br.Release()
		p.journalShed(user, now)
		ob.Counter("pool_jobs_shed_quota").Inc()
		tm.shedQuota.Inc()
		lm.quotaSheds.With(p.classOf(user)).Inc()
		ob.Emit("pool.shed", map[string]string{"tool": tool, "user": user, "reason": "quota"})
		return nil, fmt.Errorf("portal: user %q: %w", user, ErrQuotaExceeded)
	}
	tk := &Ticket{
		user: user, tool: tool, input: input,
		queuedAt: now,
		te:       te, p: p,
		done: make(chan struct{}),
		quit: make(chan struct{}),
	}
	d := opts.Deadline
	if d <= 0 {
		d = p.cfg.DefaultDeadline
	}
	if d > 0 {
		tk.deadline = now.Add(d)
	}
	// The span must exist before push: a worker may pop and finish
	// the ticket before SubmitAsync regains control.
	sp := ob.StartSpan("portal.ticket")
	sp.SetLabel("tool", tool)
	sp.SetLabel("user", user)
	tk.sp = sp
	p.jmu.Lock()
	if err := p.fq.push(tk); err != nil {
		p.jmu.Unlock()
		br.Release()
		p.quota.refund(user)
		p.journalShed(user, now)
		switch {
		case errors.Is(err, ErrPoolClosed):
			sp.SetLabel("state", "shed_closed")
			sp.End()
			return nil, ErrPoolClosed
		case errors.Is(err, errFairShare):
			ob.Counter("pool_jobs_shed_quota").Inc()
			tm.shedQuota.Inc()
			lm.quotaSheds.With(p.classOf(user)).Inc()
			ob.Emit("pool.shed", map[string]string{"tool": tool, "user": user, "reason": "share"})
			sp.SetLabel("state", "shed_share")
			sp.End()
			return nil, fmt.Errorf("portal: user %q queue share full: %w", user, ErrQuotaExceeded)
		default:
			// Backpressure: shed instead of blocking the submitter, and
			// give back any half-open probe slot the breaker reserved.
			ob.Counter("pool_jobs_shed_queue").Inc()
			tm.shedQueue.Inc()
			ob.Emit("pool.shed", map[string]string{"tool": tool, "user": user, "reason": "queue"})
			sp.SetLabel("state", "shed_queue")
			sp.End()
			return nil, ErrQueueFull
		}
	}
	// Admission bookkeeping is atomic with the push: under jmu the
	// ticket gets its sequence, enters the ledger, and its admit
	// record is written — all before any worker can finish it
	// (finishing takes jmu too). The record is durable before
	// SubmitAsync acknowledges the ticket to the caller.
	p.seq++
	tk.seq = p.seq
	p.ledger.Admitted++
	var mark int64
	if p.jr != nil {
		mark = p.jr.appendAdmit(tk)
	}
	p.jmu.Unlock()
	p.jr.durable(mark)
	lm.admitted.Inc()
	if d > 0 {
		go p.watchTicket(tk, d)
	}
	return tk, nil
}

// Submit runs a job through the pool and blocks until its result is
// ready — it is exactly SubmitAsync followed by Wait. Shedding paths
// return immediately with the errors SubmitAsync documents. A nil
// error means exactly one JobResult was produced and appended to the
// user's history.
func (p *Pool) Submit(user, tool, input string) (JobResult, error) {
	tk, err := p.SubmitAsync(user, tool, input)
	if err != nil {
		return JobResult{}, err
	}
	return tk.Wait(nil)
}

// watchTicket is the per-ticket deadline watchdog: it enforces expiry
// at the wall-clock instant via the injectable timer, and exits as
// soon as the ticket turns terminal. (The worker additionally checks
// the deadline against the pool clock when it pops the ticket, so
// expiry is deterministic under a fake clock even if the fake timer
// never fires.)
func (p *Pool) watchTicket(tk *Ticket, d time.Duration) {
	t := p.timer(d)
	defer t.Stop()
	select {
	case <-t.C:
		p.stop(tk, ErrDeadline)
	case <-tk.done:
	}
}

// stop is the one way to end a ticket early, with cause ErrCancelled
// or ErrDeadline, wherever the ticket is: a queued one finishes at
// once without running; a running one is interrupted through its quit
// channel and finishes via the worker after the usual cancel + grace
// window; a terminal one is left alone.
func (p *Pool) stop(tk *Ticket, cause error) {
	tk.mu.Lock()
	queued := tk.state == TicketQueued
	if tk.state == TicketRunning && tk.quitErr == nil {
		tk.quitErr = cause
		close(tk.quit)
	}
	tk.mu.Unlock()
	if queued {
		p.finish(tk, JobResult{}, cause, false)
	}
}

// startTicket transitions a popped ticket into the running state,
// enforcing its deadline at the moment of pop against the pool clock
// — the deterministic check under a fake clock, independent of the
// watchdog timer. Reports false when the ticket must not run
// (already terminal, or expired on pop).
func (p *Pool) startTicket(tk *Ticket, now time.Time) bool {
	tk.mu.Lock()
	if tk.state != TicketQueued {
		tk.mu.Unlock()
		return false
	}
	if !tk.deadline.IsZero() && !now.Before(tk.deadline) {
		tk.mu.Unlock()
		p.finish(tk, JobResult{}, ErrDeadline, false)
		return false
	}
	tk.state = TicketRunning
	tk.mu.Unlock()
	if p.jr != nil {
		// The start record is durable before the tool runs, so a re-run
		// after a crash is always marked Replayed.
		p.jmu.Lock()
		mark := p.jr.appendStart(tk.seq)
		p.jmu.Unlock()
		p.jr.durable(mark)
	}
	return true
}

// finish is the one terminal transition, for every way a ticket ends:
// the worker after a run (ran), and stop and recovery's orphaned or
// expired tickets for one that never ran. cause classifies the
// outcome: ErrDeadline and ErrCancelled are lifecycle errors Wait
// returns; anything else (tool failure, timeout) is a completed run
// whose details live in res. A ticket that never
// ran finishes only from TicketQueued (the first caller wins), gets a
// result synthesized from its admission, writes no history, and gives
// its breaker slot back — the tool never got a chance to fail. An
// expiry's site is running for a ticket that ran and queued for one
// that did not — or draining, either way, once Close has begun.
// History, ledger, and the journal's done record commit atomically
// under jmu, so the record order on disk is the order the pool's state
// changed in; the done record is durable before the ticket reads as
// done.
func (p *Pool) finish(tk *Ticket, res JobResult, cause error, ran bool) {
	state, doneState := "completed", doneCompleted
	switch {
	case errors.Is(cause, ErrDeadline):
		state, doneState = "expired", doneExpired
	case errors.Is(cause, ErrCancelled):
		state, doneState = "cancelled", doneCancelled
	default:
		cause = nil
		if tk.replayed {
			doneState = doneReplayed
		}
	}

	if !ran {
		res = JobResult{Tool: tk.tool, Input: tk.input, When: tk.queuedAt, Err: cause.Error()}
	}
	res.Replayed = tk.replayed

	p.jmu.Lock()
	if ran {
		// The worker owns a running ticket, so no claim is needed; the
		// entry lands before the ticket reads as done.
		p.histMu.Lock()
		p.history[tk.user] = appendHistory(p.history[tk.user], res, p.cfg.HistoryLimit)
		p.histMu.Unlock()
	}
	tk.mu.Lock()
	if !ran && tk.state != TicketQueued {
		tk.mu.Unlock()
		p.jmu.Unlock()
		return
	}
	tk.state = TicketDone
	tk.res = res
	tk.err = cause
	sp := tk.sp
	tk.mu.Unlock()

	p.ledger.count(doneState)
	var mark int64
	if p.jr != nil {
		mark = p.jr.appendDone(doneRec{seq: tk.seq, state: doneState, ran: ran, res: res})
	}
	p.jmu.Unlock()
	p.jr.durable(mark)

	if !ran && tk.te != nil {
		tk.te.br.Release()
	}
	switch doneState {
	case doneExpired:
		p.lm.expired.Inc()
		where := "queued"
		switch {
		case p.closing():
			where = "draining"
		case ran:
			where = "running"
		}
		p.lm.expiries.With(where).Inc()
		p.obs.Emit("pool.deadline", map[string]string{"tool": tk.tool, "user": tk.user, "where": where})
	case doneCancelled:
		p.lm.cancelled.Inc()
	case doneReplayed:
		p.lm.replayed.Inc()
	default:
		p.lm.completed.Inc()
	}
	sp.SetLabel("state", state)
	if ran {
		sp.SetLabel("attempts", strconv.Itoa(res.Attempts))
		sp.SetLabel("timed_out", strconv.FormatBool(res.TimedOut))
	}
	sp.End()
	// Last: a Wait that returns sees the terminal counters, the
	// released breaker slot and the ended span.
	close(tk.done)
}

// worker is the job-execution loop: fair-dequeue, start (or expire)
// the ticket, run it (with retries and panic isolation), record the
// breaker outcome, append history, publish the terminal state, and
// return the user's inflight slot. Workers exit when the queue is
// closed and fully drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		tk := p.fq.pop()
		if tk == nil {
			return
		}
		now := p.clock()
		p.lm.queueWait.ObserveDuration(now.Sub(tk.queuedAt))
		if !p.startTicket(tk, now) {
			// Cancelled or expired while queued: already finished.
			p.fq.release(tk.user)
			continue
		}
		res, rawErr := p.runJob(tk)
		p.finish(tk, res, rawErr, true)
		p.fq.release(tk.user)
	}
}

// runJob executes one ticket: up to Retry.MaxAttempts attempts with
// exponential backoff + jitter between transient failures — both the
// attempt and the backoff sleep abort promptly when the ticket's quit
// channel fires (deadline or cancel) — then breaker recording and
// telemetry.
func (p *Pool) runJob(tk *Ticket) (JobResult, error) {
	ob, clock := p.obs, p.clock
	ob.Gauge("pool_jobs_inflight").Add(1)
	start := clock()

	maxAttempts := p.cfg.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var res JobResult
	var rawErr error
	attempt := 0
	for {
		attempt++
		res, rawErr = execTool(tk, p.cfg.Timeout, ob)
		if rawErr == nil || attempt >= maxAttempts || res.TimedOut || !IsTransient(rawErr) {
			break
		}
		ob.Counter("pool_retries").Inc()
		tk.te.tm.retries.Inc()
		interrupted := false
		backoff := p.timer(p.cfg.Retry.Delay(attempt, p.jitter()))
		select {
		case <-backoff.C:
		case <-tk.quit:
			interrupted = true
		}
		backoff.Stop()
		if interrupted {
			// Deadline or cancellation landed during the backoff —
			// possibly one shorter than the backoff itself. The next
			// attempt would be interrupted instantly, so abort now.
			rawErr = tk.quitReason()
			res = JobResult{Tool: tk.tool, Err: rawErr.Error()}
			break
		}
	}
	res.Attempts = attempt
	res.Input = tk.input
	res.When = start
	res.Duration = clock().Sub(start)

	if errors.Is(rawErr, ErrDeadline) || errors.Is(rawErr, ErrCancelled) {
		// The interrupt is the ticket's fault, not the tool's: give
		// back the admission slot instead of recording a failure, so
		// user deadlines can't trip a healthy tool's breaker.
		tk.te.br.Release()
	} else {
		tk.te.br.Record(rawErr == nil && !res.TimedOut)
	}

	ob.Gauge("pool_jobs_inflight").Add(-1)
	ob.Counter("pool_jobs_total").Inc()
	tk.te.tm.jobs.Inc()
	if res.TimedOut {
		ob.Counter("pool_jobs_timeout").Inc()
	}
	if res.Err != "" {
		ob.Counter("pool_jobs_error").Inc()
	}
	ob.Histogram("pool_job_seconds").ObserveDuration(res.Duration)
	tk.te.tm.seconds.ObserveDuration(res.Duration)
	return res, rawErr
}

// runOutcome is one tool attempt's raw return.
type runOutcome struct {
	out string
	err error
}

// execTool runs a single attempt of tk's tool with the portal's three
// layers of isolation:
//
//  1. panic recovery — a crashing Run becomes a failed result
//     wrapping ErrToolPanic (portal_panics_recovered and
//     pool_tool_panics_total{tool} counters);
//  2. timeout + cooperative cancellation — after timeout the cancel
//     channel closes and the tool gets GracePeriod to acknowledge;
//  3. abandonment — a tool that ignores cancellation is left running
//     detached, counted (portal_jobs_abandoned), tracked live
//     (portal_abandoned_inflight gauge), and drained by a watcher
//     when it finally returns (portal_abandoned_returned), so an
//     eventually-finishing runaway never leaks its goroutine or its
//     buffered outcome.
//
// The ticket's quit channel is a second interrupt source beside the
// timeout timer: the pool closes it when the deadline expires or the
// ticket is cancelled mid-run. An interrupted attempt goes through the
// same cancel + grace + abandon machinery as a timeout, but is not
// marked TimedOut — its raw error is tk.quitReason() (ErrDeadline or
// ErrCancelled), so callers can tell the three interrupts apart.
//
// The returned error is the tool's raw error (nil on success), kept
// alongside the stringified JobResult.Err so callers can classify it
// (IsTransient, ErrToolPanic) without string matching.
func execTool(tk *Ticket, timeout time.Duration, ob *obs.Observer) (JobResult, error) {
	t, tool, input, tm := tk.te.t, tk.tool, tk.input, tk.te.tm
	cancel := make(chan struct{})
	done := make(chan runOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ob.Counter("portal_panics_recovered").Inc()
				tm.panics.Inc()
				done <- runOutcome{err: fmt.Errorf("%w: %v", ErrToolPanic, r)}
			}
		}()
		out, err := t.Run(input, cancel)
		done <- runOutcome{out, err}
	}()
	res := JobResult{Tool: tool}
	var rawErr error
	interrupted := false
	limit := tk.p.timer(timeout)
	select {
	case o := <-done:
		res.Output = o.out
		rawErr = o.err
	case <-tk.quit:
		interrupted = true
	case <-limit.C:
		res.TimedOut = true
	}
	limit.Stop()
	if interrupted || res.TimedOut {
		close(cancel)
		// Give the tool a short grace period to acknowledge.
		grace := tk.p.timer(GracePeriod)
		defer grace.Stop()
		select {
		case o := <-done:
			res.Output = o.out
			rawErr = o.err
		case <-grace.C:
			// The tool ignored cancellation: its goroutine keeps
			// running detached. Make the runaway visible instead of
			// silently dropping it, and drain its outcome when it
			// finally returns so nothing leaks.
			res.Abandoned = true
			ob.Counter("portal_jobs_abandoned").Inc()
			ob.Gauge("portal_abandoned_inflight").Add(1)
			ob.Emit("portal.abandoned", map[string]string{"tool": tool, "user": tk.user})
			go func() {
				<-done
				ob.Gauge("portal_abandoned_inflight").Add(-1)
				ob.Counter("portal_abandoned_returned").Inc()
			}()
		}
		// The interrupt reason dominates whatever the grace period
		// produced: a past-deadline or cancelled job is terminated even
		// if output arrived a hair late, so outcomes are deterministic
		// under injected timers.
		if interrupted {
			rawErr = tk.quitReason()
		} else if rawErr == nil {
			rawErr = errors.New("terminated: exceeded portal time limit")
		}
	}
	if rawErr != nil {
		res.Err = rawErr.Error()
	}
	return res, rawErr
}

// History returns the user's retained past results, newest first.
func (p *Pool) History(user string) []JobResult {
	p.histMu.Lock()
	defer p.histMu.Unlock()
	return reverseHistory(p.history[user], len(p.history[user]))
}

// Ready reports whether the pool can usefully accept work — the
// /readyz answer. It returns an error once the pool is closed, or
// when every registered tool's breaker is open (the portal is up but
// shedding 100% of load); a half-open breaker counts as ready since
// probes are being admitted.
func (p *Pool) Ready() error {
	if p.closing() {
		return ErrPoolClosed
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.tools) == 0 {
		return nil
	}
	open := 0
	for _, te := range p.tools {
		if te.br.State() == BreakerOpen {
			open++
		}
	}
	if open == len(p.tools) {
		return fmt.Errorf("portal: all %d tool breakers open", open)
	}
	return nil
}

// HistoryN returns the user's n most recent results, newest first —
// one page of the history view, without copying the whole record.
func (p *Pool) HistoryN(user string, n int) []JobResult {
	p.histMu.Lock()
	defer p.histMu.Unlock()
	return reverseHistory(p.history[user], n)
}

// reverseHistory copies the newest min(n, len(h)) entries of h in
// newest-first order.
func reverseHistory(h []JobResult, n int) []JobResult {
	if n > len(h) {
		n = len(h)
	}
	if n < 0 {
		n = 0
	}
	out := make([]JobResult, n)
	for i := 0; i < n; i++ {
		out[i] = h[len(h)-1-i]
	}
	return out
}

// journalShed records a shed admission's quota-bucket touch, so
// replayed bucket state matches the live table exactly (a failed
// admission still refills the bucket and advances its timestamp).
// No-op without a journal or with quotas disabled.
func (p *Pool) journalShed(user string, now time.Time) {
	if p.jr == nil || !p.quota.enabled() {
		return
	}
	p.jmu.Lock()
	mark := p.jr.appendShed(user, now)
	p.jmu.Unlock()
	p.jr.durable(mark)
}

// Journal returns the pool's attached journal (nil when journaling is
// off) — status pages surface its Err and Stats.
func (p *Pool) Journal() *Journal { return p.jr }
