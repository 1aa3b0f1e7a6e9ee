package portal

import (
	"errors"
	"fmt"
	"testing"
)

// fqTicket builds a bare ticket for queue-only tests.
func fqTicket(user, input string) *Ticket {
	return &Ticket{user: user, input: input,
		done: make(chan struct{}), quit: make(chan struct{})}
}

// popDrain pops every immediately-available ticket single-threaded,
// releasing each user's inflight slot right away so only the
// round-robin policy (not the concurrency cap) shapes the order.
func popDrain(fq *fairQueue) []*Ticket {
	var out []*Ticket
	for {
		tk, lane := fq.next()
		if tk == nil {
			return out
		}
		lane.inflight++
		fq.size--
		lane.inflight--
		out = append(out, tk)
	}
}

// TestFairQueueBoundedUnfairness is the fairness proof in miniature:
// one hot user floods their whole share while three normal users keep
// a single-digit backlog. At every prefix of the drain, the hot
// user's served count may exceed the most-served normal user's by at
// most one quantum (weight 1) — the deficit-round-robin bound.
func TestFairQueueBoundedUnfairness(t *testing.T) {
	fq := newFairQueue(1024, 1024)
	const hotJobs, normalJobs = 64, 8
	for i := 0; i < hotJobs; i++ {
		if err := fq.push(fqTicket("hot", fmt.Sprintf("h%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < normalJobs; i++ {
		for _, u := range []string{"n1", "n2", "n3"} {
			if err := fq.push(fqTicket(u, fmt.Sprintf("%s-%03d", u, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	served := map[string]int{}
	backlog := map[string]int{"hot": hotJobs, "n1": normalJobs, "n2": normalJobs, "n3": normalJobs}
	order := popDrain(fq)
	if len(order) != hotJobs+3*normalJobs {
		t.Fatalf("drained %d tickets, want %d", len(order), hotJobs+3*normalJobs)
	}
	for i, tk := range order {
		served[tk.user]++
		backlog[tk.user]--
		// Bound check against every user that is still backlogged:
		// the scheduler may not run ahead of them by more than one
		// full round (weight 1 ⇒ one ticket).
		for u, rem := range backlog {
			if u == tk.user || rem <= 0 {
				continue
			}
			if served[tk.user]-served[u] > 1 {
				t.Fatalf("pop %d: %s served %d while backlogged %s has %d — unfairness bound broken",
					i, tk.user, served[tk.user], u, served[u])
			}
		}
	}
	// Per-lane FIFO survived the interleave.
	seen := map[string]string{}
	for _, tk := range order {
		if prev, ok := seen[tk.user]; ok && tk.input <= prev {
			t.Fatalf("user %s out of order: %q after %q", tk.user, tk.input, prev)
		}
		seen[tk.user] = tk.input
	}
}

func TestFairQueueCaps(t *testing.T) {
	fq := newFairQueue(4, 2)
	if err := fq.push(fqTicket("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := fq.push(fqTicket("a", "2")); err != nil {
		t.Fatal(err)
	}
	// a's share (2 of 4) is spent: per-user shed, queue has room.
	if err := fq.push(fqTicket("a", "3")); !errors.Is(err, errFairShare) {
		t.Fatalf("share-capped push err = %v", err)
	}
	if err := fq.push(fqTicket("b", "1")); err != nil {
		t.Fatal(err)
	}
	if err := fq.push(fqTicket("c", "1")); err != nil {
		t.Fatal(err)
	}
	// Global capacity (4) reached: even a fresh user is shed.
	if err := fq.push(fqTicket("d", "1")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full-queue push err = %v", err)
	}
	if fq.size != 4 {
		t.Fatalf("queued = %d, want 4", fq.size)
	}
}

// TestFairQueueInflightCap: a user runs one ticket at a time, so their
// second ticket is withheld until release — other users' work flows
// past it.
func TestFairQueueInflightCap(t *testing.T) {
	fq := newFairQueue(16, 16)
	for _, in := range []string{"a1", "a2"} {
		if err := fq.push(fqTicket("a", in)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fq.push(fqTicket("b", "b1")); err != nil {
		t.Fatal(err)
	}
	first := fq.pop()
	if first.input != "a1" {
		t.Fatalf("first pop = %q, want a1", first.input)
	}
	// a is at its inflight cap: a2 must not surface, b1 does.
	second := fq.pop()
	if second.input != "b1" {
		t.Fatalf("second pop = %q, want b1 (a capped)", second.input)
	}
	if tk, _ := func() (*Ticket, *userLane) { fq.mu.Lock(); defer fq.mu.Unlock(); return fq.next() }(); tk != nil {
		t.Fatalf("a2 surfaced while a inflight: %q", tk.input)
	}
	fq.release("a")
	third := fq.pop()
	if third.input != "a2" {
		t.Fatalf("post-release pop = %q, want a2", third.input)
	}
}

func TestFairQueueCloseDrains(t *testing.T) {
	fq := newFairQueue(16, 16)
	for i := 0; i < 3; i++ {
		if err := fq.push(fqTicket("u", fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fq.closeQueue()
	if err := fq.push(fqTicket("u", "late")); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close push err = %v", err)
	}
	// pop keeps serving the backlog after close — the graceful drain —
	// and only then reports exhaustion with nil.
	for i := 0; i < 3; i++ {
		tk := fq.pop()
		if tk == nil || tk.input != fmt.Sprintf("%d", i) {
			t.Fatalf("drain pop %d = %+v", i, tk)
		}
		fq.release("u")
	}
	if tk := fq.pop(); tk != nil {
		t.Fatalf("pop after drain = %q, want nil", tk.input)
	}
}
