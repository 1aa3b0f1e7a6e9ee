package portal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// gateTool blocks every run until release closes, signalling started
// on each entry — the way tests pin a ticket mid-flight.
func gateTool(name string, started chan<- string, release <-chan struct{}) Tool {
	return toolFunc{name: name, desc: "blocks until released",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			select {
			case started <- input:
			default:
			}
			select {
			case <-release:
				return input, nil
			case <-cancel:
				return "", errors.New("gate cancelled")
			}
		}}
}

// crashQueuedPool builds a journaled pool with one worker wedged on a
// gate tool and n-1 more tickets queued behind it, then "crashes" it:
// the returned bytes are the journal as of the crash instant. The pool
// is cleaned up via t.Cleanup.
func crashQueuedPool(t *testing.T, cfg PoolConfig, n int, deadline time.Duration) []byte {
	t.Helper()
	started := make(chan string, 1)
	release := make(chan struct{})
	ms := &memSyncer{}
	cfg.Journal = NewJournal(ms, JournalOpts{})
	cfg.Workers = 1
	if cfg.Observer == nil {
		cfg.Observer = obs.NewObserver(nil)
	}
	p := NewPool(cfg)
	if err := p.Register(gateTool("work", started, release)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := p.SubmitAsyncOpts("u", "work", fmt.Sprintf("job%d", i),
			TicketOpts{Deadline: deadline}); err != nil {
			t.Fatal(err)
		}
	}
	<-started // job0 is mid-flight; its start record is durable
	data := ms.Bytes()
	t.Cleanup(func() {
		close(release)
		p.Close()
	})
	return data
}

// TestRecoverRequeuesInOrderAndMarksReplayed is the core replay
// contract: queued tickets re-enter in original admission order, the
// mid-flight one re-runs at-least-once and is the only history entry
// marked Replayed, and the ledger balances with Replayed == 1.
func TestRecoverRequeuesInOrderAndMarksReplayed(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk.Now}, 4, 0)

	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerun != 1 || rep.Requeued != 3 {
		t.Fatalf("rerun=%d requeued=%d, want 1/3", rep.Rerun, rep.Requeued)
	}
	p2.Close() // graceful drain executes every restored ticket

	h := p2.History("u") // newest first
	if len(h) != 4 {
		t.Fatalf("history = %d entries, want 4", len(h))
	}
	for i, res := range h {
		want := fmt.Sprintf("job%d", 3-i)
		if res.Input != want {
			t.Fatalf("history[%d] = %q, want %q: admission order not preserved", i, res.Input, want)
		}
		if got := res.Replayed; got != (res.Input == "job0") {
			t.Fatalf("history[%d] (%s) Replayed = %v", i, res.Input, got)
		}
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Admitted != 4 || led.Replayed != 1 || led.Completed != 3 {
		t.Fatalf("ledger = %+v", led)
	}
}

// echoTool2 is echoTool under an arbitrary name, for recovering pools
// whose journal names a different tool.
func echoTool2(name string) Tool {
	return toolFunc{name: name, desc: "returns its input",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			return input, nil
		}}
}

func TestRecoverDeadlineRearmedAgainstClock(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk.Now}, 2, 10*time.Second)

	// One second passes while the portal restarts: watchdogs must be
	// re-armed with the 9s remaining, not the original 10s.
	clk.Advance(time.Second)
	var mu sync.Mutex
	var armed []time.Duration
	after := func(d time.Duration) <-chan time.Time {
		mu.Lock()
		armed = append(armed, d)
		mu.Unlock()
		return make(chan time.Time) // never fires
	}
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now, After: after,
		Timeout: time.Hour, Observer: obs.NewObserver(nil)},
		bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expired != 0 || rep.Rerun+rep.Requeued != 2 {
		t.Fatalf("report = %+v, want both tickets live", rep)
	}
	p2.Close()
	// The watchdog goroutines arm asynchronously; poll briefly.
	rearms := 0
	for deadline := time.Now().Add(2 * time.Second); rearms != 2 && time.Now().Before(deadline); {
		rearms = 0
		mu.Lock()
		for _, d := range armed {
			if d == 9*time.Second {
				rearms++
			}
		}
		mu.Unlock()
		if rearms != 2 {
			time.Sleep(time.Millisecond)
		}
	}
	if rearms != 2 {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("re-armed %d watchdogs at 9s (all arms: %v), want 2", rearms, armed)
	}
	if led := p2.Ledger(); !led.Balanced() || led.Completed+led.Replayed != 2 {
		t.Fatalf("ledger = %+v", led)
	}
}

func TestRecoverExpiresPastDeadlineTickets(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk.Now}, 2, 10*time.Second)

	clk.Advance(time.Minute) // the outage outlived both deadlines
	ob := obs.NewObserver(nil)
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now, Observer: ob},
		bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Expired != 2 || rep.Rerun != 0 || rep.Requeued != 0 {
		t.Fatalf("report = %+v, want both expired at recovery", rep)
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Expired != 2 || led.Admitted != 2 {
		t.Fatalf("ledger = %+v", led)
	}
	if len(p2.History("u")) != 0 {
		t.Fatal("expired-while-queued tickets must not fabricate history")
	}
}

func TestRecoverOrphanedToolCancelled(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk.Now}, 3, 0)

	// Recover without registering "work": every restored ticket is
	// orphaned and cancelled, and the ledger still balances.
	p2, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.Orphaned != 3 {
		t.Fatalf("orphaned = %d, want 3", rep.Orphaned)
	}
	led := p2.Ledger()
	if !led.Balanced() || led.Cancelled != 3 {
		t.Fatalf("ledger = %+v", led)
	}
}

// lastSnapshotAt returns the byte offset of the journal's last
// snapshot record (0 when there is none).
func lastSnapshotAt(data []byte) int {
	last := 0
	for off := 0; off+8 < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if data[off+8] == recSnapshot {
			last = off
		}
		off += 8 + n
	}
	return last
}

// TestRecoverQuotaBucketsPreserved replays every way admission
// touches a token bucket — a spend, a quota shed, a spend refunded by
// a fair-share or queue-full shed — and a bucket table reset at a
// snapshot record mid-log, as an older journal or a log concatenated
// after a restart holds. Recovered buckets must equal the live pool's
// exactly. A ticking clock keeps refills fractional.
func TestRecoverQuotaBucketsPreserved(t *testing.T) {
	// wedge pins one gate ticket on the only worker and queues n more
	// behind it, so the next submission meets a full lane or queue.
	wedge := func(t *testing.T, p *Pool, n int) {
		started := make(chan string, 1)
		release := make(chan struct{})
		if err := p.Register(gateTool("gate", started, release)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { close(release) })
		if _, err := p.SubmitAsync("hot", "gate", "pin"); err != nil {
			t.Fatal(err)
		}
		<-started
		for i := 0; i < n; i++ {
			if _, err := p.SubmitAsync("hot", "gate", fmt.Sprintf("q%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name     string
		cfg      PoolConfig
		drive    func(t *testing.T, p *Pool) error
		wantErr  error
		snapshot bool // drive writes a snapshot record mid-log
	}{
		{
			name: "quota shed",
			cfg:  PoolConfig{QuotaRate: 0.001, QuotaBurst: 2},
			drive: func(t *testing.T, p *Pool) error {
				for i := 0; i < 2; i++ {
					if _, err := p.Submit("hot", "echo", "x"); err != nil {
						t.Fatal(err)
					}
				}
				_, err := p.Submit("hot", "echo", "x")
				return err
			},
			wantErr: ErrQuotaExceeded,
		},
		{
			name: "fair-share shed refunds",
			cfg:  PoolConfig{QuotaRate: 3, QuotaBurst: 5, QueueDepth: 4, FairShare: 0.5},
			drive: func(t *testing.T, p *Pool) error {
				wedge(t, p, 2)
				_, err := p.SubmitAsync("hot", "gate", "over")
				return err
			},
			wantErr: ErrQuotaExceeded,
		},
		{
			name: "queue-full shed refunds",
			cfg:  PoolConfig{QuotaRate: 3, QuotaBurst: 5, QueueDepth: 2},
			drive: func(t *testing.T, p *Pool) error {
				wedge(t, p, 2)
				_, err := p.SubmitAsync("hot", "gate", "over")
				return err
			},
			wantErr: ErrQueueFull,
		},
		{
			name: "reset at snapshot",
			cfg:  PoolConfig{QuotaRate: 3, QuotaBurst: 3},
			drive: func(t *testing.T, p *Pool) error {
				for i := 0; i < 3; i++ {
					for _, user := range []string{"hot", "cold"} {
						if _, err := p.Submit(user, "echo", "x"); err != nil {
							t.Fatal(err)
						}
					}
					if i != 1 {
						continue
					}
					// The pool is idle: write the state its journal so far
					// replays to as a snapshot record, directly, as
					// fuzzSeedJournals does.
					st, _, _, err := replayJournal(p.jr.w.(*memSyncer).Bytes(), p.cfg)
					if err != nil {
						t.Fatal(err)
					}
					p.jr.durable(p.jr.append(recSnapshot, encodeSnapshot(st)))
				}
				// The shed lands after the snapshot record.
				var err error
				for err == nil {
					_, err = p.SubmitAsync("hot", "echo", "burst")
				}
				return err
			},
			wantErr:  ErrQuotaExceeded,
			snapshot: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 7*time.Millisecond)
			cfg := tc.cfg
			cfg.Workers, cfg.Clock = 1, clk.Now
			p, ms := journaledPool(cfg, JournalOpts{})
			// Cleanups run last-in first-out: the gate opens first.
			t.Cleanup(p.Close)
			if err := p.Register(echoTool()); err != nil {
				t.Fatal(err)
			}
			if err := tc.drive(t, p); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			want := p.quota.snapshot()

			// With a snapshot record mid-log, the log from it on must
			// recover the same buckets: replay resets its table there.
			data := ms.Bytes()
			logs := [][]byte{data}
			if tc.snapshot {
				logs = append(logs, data[lastSnapshotAt(data):])
			}
			cfg.Journal, cfg.Observer = nil, obs.NewObserver(nil)
			var p2 *Pool
			for _, log := range logs {
				pr, rep, err := RecoverPool(cfg, bytes.NewReader(log), echoTool())
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				if rep.SnapshotUsed != tc.snapshot {
					t.Fatalf("SnapshotUsed = %v, want %v", rep.SnapshotUsed, tc.snapshot)
				}
				if got := pr.quota.snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("quota buckets diverged (%d-byte log):\n got %+v\nwant %+v", len(log), got, want)
				}
				p2 = pr
			}
			if tc.name != "quota shed" {
				return
			}
			// The hot user stays shed across the restart; a cold user is
			// not.
			if _, err := p2.Submit("hot", "echo", "x"); !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("hot user err = %v, want ErrQuotaExceeded after recovery", err)
			}
			if _, err := p2.Submit("cold", "echo", "x"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoverHistoryLimitExact pins byte-identical history retention:
// the pool's raw slice — including the 2×limit block-trim boundary —
// replays exactly, under a ticking fake clock so no two results look
// alike.
func TestRecoverHistoryLimitExact(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk.Now, HistoryLimit: 3}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now, HistoryLimit: 3,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms.Bytes()), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !reflect.DeepEqual(p2.History("u"), p.History("u")) {
		t.Fatalf("history diverged:\n got %+v\nwant %+v", p2.History("u"), p.History("u"))
	}
	// The raw retained slice (not just the page) matches too, so the
	// next trim fires at the same append on both pools.
	if !reflect.DeepEqual(p2.history["u"], p.history["u"]) {
		t.Fatal("raw retained history (trim boundary) diverged")
	}
	p.Close()
}

func TestRecoverEmptyJournal(t *testing.T) {
	p, rep, err := RecoverPool(PoolConfig{Workers: 1,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(nil), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.Bytes != 0 || rep.SnapshotUsed {
		t.Fatalf("report = %+v, want zeros", rep)
	}
	if _, err := p.Submit("u", "echo", "hello"); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if led := p.Ledger(); !led.Balanced() || led.Admitted != 1 {
		t.Fatalf("ledger = %+v", led)
	}
}

// TestRecoverChainDurability proves recovery-of-a-recovery: the first
// recovered pool writes its restored state into a fresh journal, and a
// second crash recovers through that journal alone.
func TestRecoverChainDurability(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), 0)
	data := crashQueuedPool(t, PoolConfig{Clock: clk.Now}, 3, 0)

	ms2 := &memSyncer{}
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now,
		Journal: NewJournal(ms2, JournalOpts{}), Observer: obs.NewObserver(nil)},
		bytes.NewReader(data), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()

	p3, rep, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms2.Bytes()), echoTool2("work"))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if !rep.SnapshotUsed {
		t.Fatal("chained recovery should start from the chain snapshot")
	}
	if !reflect.DeepEqual(p3.History("u"), p2.History("u")) {
		t.Fatalf("chained history diverged:\n got %+v\nwant %+v", p3.History("u"), p2.History("u"))
	}
	if got, want := p3.Ledger(), p2.Ledger(); got != want {
		t.Fatalf("chained ledger %+v != %+v", got, want)
	}
}
