package portal

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// Sustained-submission throughput, parallel users: bounded workers
// over the fair queue, one history lock. Numbers are recorded
// in EXPERIMENTS.md.

func benchUsers() int { return 4 * runtime.GOMAXPROCS(0) }

func BenchmarkPoolSubmit(b *testing.B) {
	p := NewPool(PoolConfig{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: 4 * runtime.GOMAXPROCS(0),
		Observer:   obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("user%d", next.Add(1)%int64(users))
		for pb.Next() {
			if _, err := p.Submit(user, "echo", "ping"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPoolSubmitJournal is BenchmarkPoolSubmit with the
// write-ahead ticket journal on (in-memory target, no-op Sync): the
// durability overhead of framing, checksumming, and writing three
// records per job — the journal-on vs journal-off comparison in
// EXPERIMENTS.md.
func BenchmarkPoolSubmitJournal(b *testing.B) {
	p := NewPool(PoolConfig{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: 4 * runtime.GOMAXPROCS(0),
		// Bounded history keeps periodic compaction snapshots O(users):
		// unbounded retention would make each snapshot re-encode every
		// result ever seen.
		HistoryLimit: 32,
		Journal:      NewJournal(&memSyncer{}, JournalOpts{}),
		Observer:     obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("user%d", next.Add(1)%int64(users))
		for pb.Next() {
			if _, err := p.Submit(user, "echo", "ping"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// sleepSyncer is a journal target that discards writes and sleeps in
// Sync for its duration — an fsync without the disk.
type sleepSyncer time.Duration

func (sleepSyncer) Write(p []byte) (int, error) { return len(p), nil }

func (s sleepSyncer) Sync() error {
	time.Sleep(time.Duration(s))
	return nil
}

// BenchmarkPoolSubmitJournalSlowSync is BenchmarkPoolSubmitJournal
// over a journal whose Sync sleeps 100 µs, with 16 submitters and 8
// workers per proc: the fsync-bound case group commit is for.
// Concurrent transitions share Syncs, so ns/op falls well below three
// Syncs per job. (A worker waits for its ticket's start and done
// records, so one worker alone finishes at most one job per two Syncs.)
func BenchmarkPoolSubmitJournalSlowSync(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	p := NewPool(PoolConfig{
		Workers:      8 * procs,
		QueueDepth:   64 * procs,
		HistoryLimit: 32,
		Journal:      NewJournal(sleepSyncer(100*time.Microsecond), JournalOpts{}),
		Observer:     obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	var next atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("user%d", next.Add(1)%int64(users))
		for pb.Next() {
			if _, err := p.Submit(user, "echo", "ping"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRecoverPool measures warm-pool reconstruction: replay a
// 100-ticket journal (plus a handful of mid-flight tickets that
// re-run) into a serving pool and drain it — the restart-to-ready
// latency recorded in EXPERIMENTS.md.
func BenchmarkRecoverPool(b *testing.B) {
	ms := &memSyncer{}
	src := NewPool(PoolConfig{
		Workers: 4, QueueDepth: 128,
		Journal:  NewJournal(ms, JournalOpts{}),
		Observer: obs.NewObserver(nil),
	})
	if err := src.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := src.Submit(fmt.Sprintf("user%d", i%8), "echo", "ping"); err != nil {
			b.Fatal(err)
		}
	}
	// Leave 4 tickets mid-flight so every recovery also re-runs work.
	release := make(chan struct{})
	started := make(chan string, 4)
	if err := src.Register(gateTool("gate", started, release)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := src.SubmitAsync(fmt.Sprintf("gated%d", i), "gate", "x"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	data := ms.Bytes() // the crash point: 4 started, none finished
	close(release)
	src.Close()

	cfg := PoolConfig{Workers: 4, QueueDepth: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, rep, err := RecoverPool(cfg, bytes.NewReader(data), echoTool(), echoTool2("gate"))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rerun != 4 {
			b.Fatalf("rerun = %d, want 4", rep.Rerun)
		}
		p.Close()
	}
}

// BenchmarkPoolSubmitAsync measures the pipelined ticket flow: each
// user keeps a window of async submissions in flight and only blocks
// to collect results when the window fills — the async-vs-blocking
// comparison recorded in EXPERIMENTS.md. The queue is sized to hold
// every window so backpressure never sheds in-bench.
func BenchmarkPoolSubmitAsync(b *testing.B) {
	const window = 8
	users := benchUsers()
	p := NewPool(PoolConfig{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: users * window,
		Observer:   obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("user%d", next.Add(1)%int64(users))
		inflight := make([]*Ticket, 0, window)
		for pb.Next() {
			tk, err := p.SubmitAsync(user, "echo", "ping")
			if err != nil {
				b.Error(err)
				return
			}
			inflight = append(inflight, tk)
			if len(inflight) == window {
				for _, t := range inflight {
					if _, err := t.Wait(nil); err != nil {
						b.Error(err)
						return
					}
				}
				inflight = inflight[:0]
			}
		}
		for _, t := range inflight {
			_, _ = t.Wait(nil)
		}
	})
}

// BenchmarkPoolSubmitHistory is the mixed portal workload: every
// submission is followed by two history-page reads (the paper's
// "scroll for older outputs" page, paged via HistoryN so read cost
// stays O(page), not O(lifetime)), spread across many users.
func BenchmarkPoolSubmitHistory(b *testing.B) {
	p := NewPool(PoolConfig{
		Workers:      runtime.GOMAXPROCS(0),
		QueueDepth:   4 * runtime.GOMAXPROCS(0),
		HistoryLimit: 64,
		Observer:     obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		user := fmt.Sprintf("user%d", id%int64(users))
		peer := fmt.Sprintf("user%d", (id+1)%int64(users))
		for pb.Next() {
			if _, err := p.Submit(user, "echo", "ping"); err != nil {
				b.Error(err)
			}
			_ = p.HistoryN(user, 8)
			_ = p.HistoryN(peer, 8)
		}
	})
}

// BenchmarkPoolSubmitFaulty measures the engine under a 10% transient
// fault rate with one retry — the resilience overhead itself.
func BenchmarkPoolSubmitFaulty(b *testing.B) {
	var n atomic.Uint64
	flaky := toolFunc{name: "flaky", desc: "10% transient failures",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			if n.Add(1)%10 == 0 {
				return "", MarkTransient(fmt.Errorf("blip"))
			}
			return input, nil
		}}
	p := NewPool(PoolConfig{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: 4 * runtime.GOMAXPROCS(0),
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
		Observer:   obs.NewObserver(nil),
	})
	defer p.Close()
	if err := p.Register(flaky); err != nil {
		b.Fatal(err)
	}
	users := benchUsers()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := fmt.Sprintf("user%d", next.Add(1)%int64(users))
		for pb.Next() {
			if _, err := p.Submit(user, "flaky", "ping"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
