// Restart chaos: crash the ticket journal's writer mid-record at swept
// byte budgets (fault.CrashWriter), recover the pool from the surviving
// prefix, and prove the paper's durability contract — zero lost or
// duplicated durably-admitted tickets, the conservation ledger balanced
// across the crash, and per-user history order preserved. Run with
// -race alongside the other chaos suites.
package portal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vlsicad/internal/fault"
	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

// memWS is an in-memory journal target safe for concurrent snapshot.
type memWS struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memWS) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memWS) Sync() error { return nil }

func (m *memWS) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

const restartUsers, restartJobs = 4, 42

// restartWorkload drives users×jobs blocking submissions through a
// journaled pool and returns it unclosed alongside the journal target.
func restartWorkload(t *testing.T, j *portal.Journal) *portal.Pool {
	t.Helper()
	p := portal.NewPool(portal.PoolConfig{
		Workers:    4,
		QueueDepth: 64,
		Journal:    j,
		Observer:   obs.NewObserver(nil),
	})
	if err := p.Register(echoTool{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < restartUsers; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("user%03d", u)
			for i := 0; i < restartJobs; i++ {
				if _, err := p.Submit(user, "echo", fmt.Sprintf("%s/job%04d", user, i)); err != nil {
					t.Errorf("%s: %v", user, err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	return p
}

// restartBudgets are the sweep's journal cut points in bytes: i/8 of a
// clean run's journal for i = 1..7, at two measured lengths (17,956 and
// 17,960 bytes) of the 25-jobs-a-user journal of the older format, in
// which done records repeated tool and input and Close wrote a
// snapshot. The current format writes about 108 bytes a job, so the
// workload runs 42 jobs a user to keep the clean journal (18,099 to
// 18,110 bytes in 30 runs) near that anchor: the same cuts still fall
// at about 1/8 to 7/8 of it. The length varies by a few bytes run to
// run because job durations are journaled as varints, so the cut
// points are fixed here to make the subtests, and their names, repeat.
var restartBudgets = []int{
	2244, 2245, 4489, 4490, 6733, 6735, 8978, 8980,
	11222, 11225, 13467, 13470, 15711, 15715,
}

// journalRunBytes measures a clean full run's journal size, the anchor
// restartBudgets must still span.
func journalRunBytes(t *testing.T) int {
	t.Helper()
	ws := &memWS{}
	p := restartWorkload(t, portal.NewJournal(ws, portal.JournalOpts{}))
	p.Close()
	n := len(ws.Bytes())
	if n == 0 {
		t.Fatal("clean run journaled nothing")
	}
	return n
}

func TestRestartChaosSweep(t *testing.T) {
	base := journalRunBytes(t)
	if last := restartBudgets[len(restartBudgets)-1]; last >= base || last < base*3/4 {
		t.Fatalf("last cut %d outside [3/4, 1) of the %d-byte journal — sweep anchor is stale", last, base)
	}
	for _, budget := range restartBudgets {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			runRestartChaos(t, budget)
		})
	}
}

func runRestartChaos(t *testing.T, budget int) {
	ws := &memWS{}
	cw := fault.NewCrashWriter(ws, budget)
	p := restartWorkload(t, portal.NewJournal(cw, portal.JournalOpts{}))
	// The journal died mid-record at the byte budget; the pool itself
	// must have kept serving every submission.
	if !cw.Crashed() {
		t.Fatalf("budget %d never exhausted — sweep anchor is stale", budget)
	}
	if err := p.Journal().Err(); err == nil {
		t.Fatal("journal should be wedged after the crash")
	}
	p.Close() // the dead process analogue: nothing after the cut survives

	// Restart: recover from exactly the bytes that reached "disk".
	data := ws.Bytes()
	ws2 := &memWS{}
	p2, rep, err := portal.RecoverPool(portal.PoolConfig{
		Workers:    4,
		QueueDepth: 64,
		Journal:    portal.NewJournal(ws2, portal.JournalOpts{}),
		Observer:   obs.NewObserver(nil),
	}, bytes.NewReader(data), echoTool{})
	if err != nil {
		t.Fatalf("mid-record cut must read as a torn tail, not corruption: %v", err)
	}
	p2.Close() // drain every restored ticket to a terminal state

	led := p2.Ledger()
	if !led.Balanced() {
		t.Fatalf("ledger unbalanced after crash+recover+drain: %+v", led)
	}
	if led.Admitted == 0 {
		t.Fatalf("no admissions survived a %d-byte journal", budget)
	}
	if rep.Orphaned != 0 || rep.Expired != 0 {
		t.Fatalf("echo is registered and deadlines are off: %+v", rep)
	}

	// Per-user: no duplicates, and job indices in admission order —
	// the recovered pool's history is a clean ordered subsequence of
	// the original submission stream.
	totalHist := 0
	for u := 0; u < restartUsers; u++ {
		user := fmt.Sprintf("user%03d", u)
		h := p2.History(user) // newest first
		totalHist += len(h)
		last := -1
		for i := len(h) - 1; i >= 0; i-- { // oldest first
			idx, err := strconv.Atoi(strings.TrimPrefix(h[i].Input, user+"/job"))
			if err != nil {
				t.Fatalf("%s: unparseable history input %q", user, h[i].Input)
			}
			if idx <= last {
				t.Fatalf("%s: history order broken or duplicated: job%04d after job%04d", user, idx, last)
			}
			last = idx
		}
	}
	// Conservation across the crash: every durably-admitted ticket is
	// terminal in exactly one bucket, and every history entry belongs
	// to a completed or replayed run.
	if int64(totalHist) != led.Completed+led.Replayed {
		t.Fatalf("history %d entries != completed %d + replayed %d",
			totalHist, led.Completed, led.Replayed)
	}

	// A second crash, inside or just after the recovered journal's
	// chain snapshot (its record 0): a cut inside it is a torn tail that
	// recovers an empty pool, and one just after it recovers the state
	// the first recovery restored, whose tickets then run to a balanced
	// ledger.
	chain := ws2.Bytes()
	end := 8 + int(binary.LittleEndian.Uint32(chain))
	for _, cut := range []int{4, end / 2, end - 1, end} {
		p3, rep3, err := portal.RecoverPool(portal.PoolConfig{
			Workers:  4,
			Observer: obs.NewObserver(nil),
		}, bytes.NewReader(chain[:cut]), echoTool{})
		if err != nil {
			t.Fatalf("chain cut %d/%d: %v", cut, end, err)
		}
		p3.Close()
		led3 := p3.Ledger()
		if !led3.Balanced() {
			t.Fatalf("chain cut %d: ledger unbalanced: %+v", cut, led3)
		}
		switch {
		case cut < end && (rep3.SnapshotUsed || led3.Admitted != 0):
			t.Fatalf("chain cut %d inside the %d-byte snapshot recovered %+v", cut, end, rep3)
		case cut == end && (!rep3.SnapshotUsed || rep3.Ledger != rep.Ledger):
			t.Fatalf("chain cut after the snapshot recovered %+v, first recovery restored %+v", rep3, rep.Ledger)
		}
	}
}
