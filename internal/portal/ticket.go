package portal

import (
	"context"
	"errors"
	"sync"
	"time"

	"vlsicad/internal/obs"
)

// ErrDeadline marks a job whose per-ticket deadline expired before it
// could finish — while still queued, mid-run, or while Close drains
// the queue. It is distinct from a per-attempt Timeout (which marks
// JobResult.TimedOut and may be retried): a deadline bounds the whole
// ticket's lifetime and is never retried past.
var ErrDeadline = errors.New("portal: job deadline exceeded")

// ErrCancelled marks a job terminated by Ticket.Cancel.
var ErrCancelled = errors.New("portal: job cancelled")

// TicketState is the async job lifecycle position: Queued → Running →
// Done. Cancel or deadline expiry can jump a queued ticket straight
// to Done without it ever running.
type TicketState int

const (
	TicketQueued TicketState = iota
	TicketRunning
	TicketDone
)

func (s TicketState) String() string {
	switch s {
	case TicketQueued:
		return "queued"
	case TicketRunning:
		return "running"
	case TicketDone:
		return "done"
	}
	return "unknown"
}

// Ticket is one admitted asynchronous submission. It can be polled
// (State/Status), waited on (Wait or Done), and cancelled. Every
// admitted ticket reaches exactly one terminal outcome: completed
// (err nil — the tool ran, possibly failing, see JobResult.Err),
// expired (ErrDeadline), or cancelled (ErrCancelled). The pool's
// Close waits for all of them, so an admitted ticket is never lost.
type Ticket struct {
	user, tool, input string
	// deadline is the absolute expiry instant (zero = none), fixed at
	// admission from TicketOpts.Deadline or PoolConfig.DefaultDeadline.
	deadline time.Time
	queuedAt time.Time

	te *toolEntry // nil for a recovered ticket whose tool is not registered
	sp *obs.Span
	p  *Pool

	// seq is the pool-assigned admission sequence — the identity the
	// ticket journal keys every transition record by. replayed marks a
	// ticket restored by RecoverPool that was mid-flight at the crash
	// (in any earlier lifetime): it re-runs at-least-once and its
	// history entry carries JobResult.Replayed. Both are set before
	// the ticket is visible to workers and immutable after.
	seq      uint64
	replayed bool

	// done closes exactly once, when the ticket turns terminal.
	done chan struct{}
	// quit closes (at most once, with quitErr set first) to interrupt
	// a running attempt — the deadline/cancel analogue of the timeout
	// timer inside execTool.
	quit chan struct{}

	mu      sync.Mutex
	state   TicketState
	res     JobResult
	err     error
	quitErr error
}

// Tool returns the tool name the ticket runs.
func (tk *Ticket) Tool() string { return tk.tool }

// State reports the ticket's current lifecycle position.
func (tk *Ticket) State() TicketState {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.state
}

// Status is the poll API: a consistent snapshot of state, result, and
// terminal error. Result and error are meaningful only once the state
// is TicketDone.
func (tk *Ticket) Status() (TicketState, JobResult, error) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.state, tk.res, tk.err
}

// Done returns a channel closed when the ticket turns terminal — the
// notify API, selectable alongside other work.
func (tk *Ticket) Done() <-chan struct{} { return tk.done }

// Wait blocks until the ticket is terminal and returns its result and
// terminal error (nil when the tool ran to completion; ErrDeadline or
// ErrCancelled otherwise — a tool-level failure lives in
// JobResult.Err with a nil Wait error, matching blocking Submit). A
// nil ctx waits forever; otherwise ctx expiry returns ctx.Err()
// without disturbing the ticket, so Wait can be called again.
func (tk *Ticket) Wait(ctx context.Context) (JobResult, error) {
	if ctx == nil {
		<-tk.done
	} else {
		select {
		case <-tk.done:
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		}
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.res, tk.err
}

// Cancel terminates the job: a queued ticket is finished immediately
// with ErrCancelled (it never runs); a running one is interrupted
// through quit and finishes with ErrCancelled after the usual
// cancel + grace window. Idempotent, and a no-op once terminal.
func (tk *Ticket) Cancel() { tk.p.stop(tk, ErrCancelled) }

// quitReason reports why quit was closed; execTool and the retry loop
// call it after <-quit fires, so quitErr is always set by then.
func (tk *Ticket) quitReason() error {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if tk.quitErr != nil {
		return tk.quitErr
	}
	return ErrCancelled
}
