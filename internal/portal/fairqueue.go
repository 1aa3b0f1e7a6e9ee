package portal

import (
	"errors"
	"sync"

	"vlsicad/internal/obs"
)

// errFairShare is fairQueue.push's internal signal that the user's
// own slice of the queue (FairShare × QueueDepth) is full while the
// queue as a whole still has room; the pool surfaces it to callers as
// ErrQuotaExceeded.
var errFairShare = errors.New("portal: user queue share full")

// userLane is one user's FIFO of queued tickets.
type userLane struct {
	user string
	q    []*Ticket
	// inflight counts the user's tickets currently held by workers
	// (0 or 1): a lane with a ticket running is skipped by the
	// scheduler, which both bounds one user's worker share to one
	// worker and keeps their jobs executing in admission order.
	inflight int
}

// fairQueue is the pool's admission queue: a bounded set of per-user
// FIFO lanes served round-robin, so a hot user can fill at most their
// own lane and is served at most one ticket per scheduling round.
// Among continuously backlogged users the dequeue counts after any
// round differ by at most one — the bounded-unfairness property the
// fairness tests pin down.
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	lanes  map[string]*userLane
	ring   []*userLane // active lanes in first-appearance order
	cursor int         // ring index the scheduler serves next

	size       int // queued tickets across all lanes
	capTotal   int // QueueDepth
	perUserCap int // FairShare × QueueDepth

	// depth is the pool_queue_depth gauge, set from size under mu by
	// every call that changes size (nil = no gauge).
	depth *obs.Gauge

	// closed is the pool's one closed flag: it stops admissions here
	// and tells Pool.closing that Close has begun.
	closed bool
}

func newFairQueue(capTotal, perUserCap int) *fairQueue {
	fq := &fairQueue{
		lanes:      map[string]*userLane{},
		capTotal:   capTotal,
		perUserCap: perUserCap,
	}
	fq.cond = sync.NewCond(&fq.mu)
	return fq
}

// push appends a ticket to its user's lane. It returns ErrPoolClosed
// after closeQueue, ErrQueueFull when the whole queue is at capacity,
// and errFairShare when only this user's slice is full.
func (fq *fairQueue) push(tk *Ticket) error {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.closed {
		return ErrPoolClosed
	}
	if fq.size >= fq.capTotal {
		return ErrQueueFull
	}
	lane := fq.lane(tk.user)
	if len(lane.q) >= fq.perUserCap {
		return errFairShare
	}
	lane.q = append(lane.q, tk)
	fq.size++
	fq.depth.Set(float64(fq.size))
	fq.cond.Signal()
	return nil
}

// restore re-enqueues a recovered ticket, bypassing the closed,
// capTotal, and perUserCap admission checks: a journal-restored ticket
// was already admitted in a previous lifetime, and recovery must not
// shed work the pool promised to run. Only RecoverPool calls this,
// before the pool is visible to any submitter, so the queue may
// transiently exceed QueueDepth until workers drain the backlog.
func (fq *fairQueue) restore(tk *Ticket) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	lane := fq.lane(tk.user)
	lane.q = append(lane.q, tk)
	fq.size++
	fq.depth.Set(float64(fq.size))
	fq.cond.Signal()
}

// lane returns the user's lane, appending a new one to the ring on
// first appearance. Callers hold fq.mu.
func (fq *fairQueue) lane(user string) *userLane {
	lane := fq.lanes[user]
	if lane == nil {
		lane = &userLane{user: user}
		fq.lanes[user] = lane
		fq.ring = append(fq.ring, lane)
	}
	return lane
}

// pop blocks until a ticket is dequeued or the queue is closed AND
// fully drained (then it returns nil and the calling worker exits).
// After close, workers keep popping: that is the graceful drain.
// The popped ticket's lane is charged one inflight slot; the caller
// must pair every successful pop with release(user).
func (fq *fairQueue) pop() *Ticket {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for {
		if tk, lane := fq.next(); tk != nil {
			lane.inflight++
			fq.size--
			fq.depth.Set(float64(fq.size))
			return tk
		}
		if fq.closed && fq.size == 0 {
			return nil
		}
		fq.cond.Wait()
	}
}

// next runs one round-robin scan: starting at the cursor, serve the
// first lane that has queued work and nothing running. The cursor
// advances past every lane it visits, served or skipped, so a blocked
// lane never stalls the ring. Callers hold fq.mu.
func (fq *fairQueue) next() (*Ticket, *userLane) {
	fq.compact()
	n := len(fq.ring)
	if n == 0 {
		return nil, nil
	}
	if fq.cursor >= n {
		fq.cursor = 0
	}
	for i := 0; i < n; i++ {
		lane := fq.ring[fq.cursor]
		fq.advance()
		if len(lane.q) > 0 && lane.inflight == 0 {
			tk := lane.q[0]
			lane.q[0] = nil
			lane.q = lane.q[1:]
			if len(lane.q) == 0 {
				lane.q = nil
			}
			return tk, lane
		}
	}
	return nil, nil
}

func (fq *fairQueue) advance() {
	fq.cursor++
	if fq.cursor >= len(fq.ring) {
		fq.cursor = 0
	}
}

// compact removes dead lanes (no queued work, nothing inflight) so
// the ring and lane map stay proportional to *active* users, not to
// every user ever seen — the memory guard for planet-scale cohorts.
// Callers hold fq.mu.
func (fq *fairQueue) compact() {
	removedBefore := 0
	out := fq.ring[:0]
	for i, lane := range fq.ring {
		if len(lane.q) == 0 && lane.inflight == 0 {
			delete(fq.lanes, lane.user)
			if i < fq.cursor {
				removedBefore++
			}
			continue
		}
		out = append(out, lane)
	}
	for i := len(out); i < len(fq.ring); i++ {
		fq.ring[i] = nil
	}
	fq.ring = out
	fq.cursor -= removedBefore
	if len(fq.ring) == 0 {
		fq.cursor = 0
	} else if fq.cursor >= len(fq.ring) || fq.cursor < 0 {
		fq.cursor = 0
	}
}

// release returns a user's inflight slot after their popped ticket
// reached a terminal state, and wakes waiters — the lane may have
// become runnable again.
func (fq *fairQueue) release(user string) {
	fq.mu.Lock()
	if lane := fq.lanes[user]; lane != nil && lane.inflight > 0 {
		lane.inflight--
	}
	fq.cond.Broadcast()
	fq.mu.Unlock()
}

// closeQueue stops admissions; queued tickets remain for the workers
// to drain.
func (fq *fairQueue) closeQueue() {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	fq.closed = true
	fq.cond.Broadcast()
}
