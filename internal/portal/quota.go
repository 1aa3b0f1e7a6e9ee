package portal

import (
	"errors"
	"sync"
	"time"
)

// ErrQuotaExceeded is returned by Submit/SubmitAsync when a user's
// token-bucket admission quota is exhausted, or when their FairShare
// slice of the queue is already full. Unlike ErrQueueFull (global
// backpressure) this is per-user backpressure: the hot user is shed
// while everyone else keeps submitting.
var ErrQuotaExceeded = errors.New("portal: user quota exceeded")

// quotaTable is per-user token-bucket admission control. Each user's
// bucket refills at rate tokens/second up to burst; one admission
// costs one token. Buckets refill lazily against the pool clock, so
// the table is deterministic under a fake clock and costs nothing for
// idle users. rate ≤ 0 disables the whole table.
type quotaTable struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*quotaBucket
}

type quotaBucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate float64, burst int) *quotaTable {
	return &quotaTable{rate: rate, burst: float64(burst), buckets: map[string]*quotaBucket{}}
}

func (q *quotaTable) enabled() bool { return q.rate > 0 }

// admit spends one token from the user's bucket. Reports false when
// the bucket is dry — the caller sheds with ErrQuotaExceeded.
func (q *quotaTable) admit(user string, now time.Time) bool {
	return q.touch(user, now, true)
}

// touch refills the user's bucket for the time elapsed since its last
// touch and, when spend is set, takes one token if one is there,
// reporting whether it did. A shed admission touches without spending:
// it still refills the bucket and advances its timestamp. Journal
// replay drives the same method, so recovered buckets match exactly.
func (q *quotaTable) touch(user string, now time.Time, spend bool) bool {
	if !q.enabled() {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[user]
	if b == nil {
		b = &quotaBucket{tokens: q.burst, last: now}
		q.buckets[user] = b
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = now
	}
	if spend && b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// snapshot copies the bucket table by value for the ticket journal's
// snapshot records, so recovery restores exactly the token balances
// and refill anchors the pool had at the crash.
func (q *quotaTable) snapshot() map[string]quotaBucket {
	if !q.enabled() {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buckets) == 0 {
		return nil
	}
	out := make(map[string]quotaBucket, len(q.buckets))
	for user, b := range q.buckets {
		out[user] = *b
	}
	return out
}

// restore installs replayed bucket state wholesale. Only RecoverPool
// calls this, on a pool not yet visible to submitters.
func (q *quotaTable) restore(m map[string]quotaBucket) {
	if !q.enabled() || len(m) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for user, b := range m {
		bb := b
		q.buckets[user] = &bb
	}
}

// refund returns the token of an admission that failed downstream
// (queue full, share full, pool closed): a shed job never burns the
// user's budget.
func (q *quotaTable) refund(user string) {
	if !q.enabled() {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.buckets[user]; b != nil {
		b.tokens++
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
	}
}
