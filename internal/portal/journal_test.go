package portal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// memSyncer is an in-memory WriteSyncer whose contents can be
// snapshotted concurrently with pool writes — the test stand-in for a
// journal file, with Bytes() as the "what survived the crash" read.
type memSyncer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memSyncer) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memSyncer) Sync() error { return nil }

func (m *memSyncer) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf.Bytes()...)
}

// frozenClock returns a clock stuck at t.
func frozenClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

// journaledPool builds a pool writing its journal to a fresh memSyncer.
func journaledPool(cfg PoolConfig, opts JournalOpts) (*Pool, *memSyncer) {
	ms := &memSyncer{}
	cfg.Journal = NewJournal(ms, opts)
	if cfg.Observer == nil {
		cfg.Observer = obs.NewObserver(nil)
	}
	return NewPool(cfg), ms
}

func TestJournalRoundTripRecover(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 2, Clock: clk.Now}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, user := range []string{"alice", "bob"} {
			if _, err := p.Submit(user, "echo", fmt.Sprintf("%s/%d", user, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Close()
	if !p.Ledger().Balanced() || p.Ledger().Admitted != 6 {
		t.Fatalf("source ledger = %+v", p.Ledger())
	}

	p2, rep, err := RecoverPool(PoolConfig{Workers: 2, Clock: clk.Now,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(ms.Bytes()), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rep.SnapshotUsed {
		t.Fatal("a first-life journal holds no snapshot record")
	}
	if rep.Requeued != 0 || rep.Rerun != 0 || rep.Expired != 0 || rep.Orphaned != 0 {
		t.Fatalf("quiescent journal should restore no live tickets: %+v", rep)
	}
	if rep.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on a clean journal", rep.TornBytes)
	}
	if rep.HistoryUsers != 2 || rep.HistoryEntries != 6 {
		t.Fatalf("history sizing = %d users / %d entries", rep.HistoryUsers, rep.HistoryEntries)
	}
	if got := p2.Ledger(); got != p.Ledger() {
		t.Fatalf("recovered ledger %+v != source %+v", got, p.Ledger())
	}
	for _, user := range []string{"alice", "bob"} {
		if !reflect.DeepEqual(p2.History(user), p.History(user)) {
			t.Fatalf("%s history diverged:\n got %+v\nwant %+v", user, p2.History(user), p.History(user))
		}
	}
	// The recovered pool is warm: it keeps serving.
	if _, err := p2.Submit("alice", "echo", "after"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailSweep chops recorded journals at every byte
// offset and asserts each prefix replays without error (a torn tail is
// a crash signature, not corruption) into internally consistent state:
// admitted == terminal + live, order ⊆ live, and the valid prefix plus
// the torn tail account for every byte. It sweeps a first-life journal
// and a recovered pool's, whose chain snapshot gives cuts inside a
// snapshot record.
func TestJournalTornTailSweep(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	cfg := PoolConfig{Workers: 1, Clock: clk.Now, QuotaRate: 100, QuotaBurst: 100}
	p, ms := journaledPool(cfg, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	first := ms.Bytes()

	// Recover from a crash halfway through, run the restored tickets
	// and a few more, and sweep the recovered pool's journal too.
	ms2 := &memSyncer{}
	rcfg := cfg
	rcfg.Journal, rcfg.Observer = NewJournal(ms2, JournalOpts{}), obs.NewObserver(nil)
	p2, _, err := RecoverPool(rcfg, bytes.NewReader(first[:len(first)/2]), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 11; i++ {
		if _, err := p2.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p2.Close()
	second := ms2.Bytes()
	if second[8] != recSnapshot {
		t.Fatalf("recovered journal starts with a %s record, want a snapshot", recKindName(second[8]))
	}

	cfg = cfg.withDefaults()
	for _, data := range [][]byte{first, second} {
		for cut := 0; cut <= len(data); cut++ {
			st, order, rep, err := replayJournal(data[:cut], cfg)
			if err != nil {
				t.Fatalf("cut %d/%d: unexpected corruption: %v", cut, len(data), err)
			}
			terminal := st.ledger.Completed + st.ledger.Expired + st.ledger.Cancelled + st.ledger.Replayed
			if st.ledger.Admitted != terminal+int64(len(st.live)) {
				t.Fatalf("cut %d: ledger %+v inconsistent with %d live", cut, st.ledger, len(st.live))
			}
			for _, seq := range order {
				if _, ok := st.live[seq]; !ok {
					t.Fatalf("cut %d: order references dead seq %d", cut, seq)
				}
			}
			if rep.Bytes+rep.TornBytes != int64(cut) {
				t.Fatalf("cut %d: bytes %d + torn %d don't cover the prefix", cut, rep.Bytes, rep.TornBytes)
			}
		}
	}
}

func TestJournalChecksumCorruption(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	p, ms := journaledPool(PoolConfig{Workers: 1, Clock: clk.Now}, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	data := ms.Bytes()

	// Flip one payload byte in the second record (a 2-byte start
	// record; +1 is its seq field): the first record still replays,
	// the rest is refused as corrupt.
	first := 8 + int(binary.LittleEndian.Uint32(data))
	data[first+8+1] ^= 0xff
	_, _, rep, err := replayJournal(data, PoolConfig{}.withDefaults())
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err = %v, want ErrJournalCorrupt", err)
	}
	if rep.Records != 1 {
		t.Fatalf("replayed %d records before the corruption, want 1", rep.Records)
	}
	if rep.TornBytes != 0 {
		t.Fatal("corruption must not be reported as a torn tail")
	}

	// RecoverPool still returns the valid-prefix warm pool alongside
	// the error, and that pool serves.
	p2, _, err := RecoverPool(PoolConfig{Workers: 1, Clock: clk.Now,
		Observer: obs.NewObserver(nil)}, bytes.NewReader(data), echoTool())
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("RecoverPool err = %v", err)
	}
	if p2 == nil {
		t.Fatal("RecoverPool should return the valid-prefix pool on corruption")
	}
	defer p2.Close()
	if _, err := p2.Submit("u", "echo", "still-serving"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDuplicateAndUnknownRecords feeds replay a log with
// duplicated admits and dones plus transitions for unknown sequences:
// the first record of each kind wins and nothing double-counts.
func TestJournalDuplicateAndUnknownRecords(t *testing.T) {
	ms := &memSyncer{}
	j := NewJournal(ms, JournalOpts{})
	t0 := time.Unix(9000, 0).UTC()
	tk := &Ticket{seq: 1, user: "u", tool: "echo", input: "a", queuedAt: t0}
	j.appendAdmit(tk)
	j.appendAdmit(tk) // duplicate admit
	j.appendStart(1)
	j.appendStart(7) // start for a seq never admitted
	done := doneRec{seq: 1, state: doneCompleted, ran: true,
		res: JobResult{Tool: "echo", Input: "a", Output: "a", When: t0}}
	j.appendDone(done)
	j.appendDone(done)                                             // duplicate done
	j.appendDone(doneRec{seq: 9, state: doneCompleted, ran: true}) // unknown seq
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	st, order, rep, err := replayJournal(ms.Bytes(), PoolConfig{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 7 {
		t.Fatalf("records = %d, want 7", rep.Records)
	}
	if st.ledger.Admitted != 1 || st.ledger.Completed != 1 {
		t.Fatalf("ledger = %+v, want exactly one admit and one completion", st.ledger)
	}
	if len(st.live) != 0 || len(order) != 0 {
		t.Fatalf("live = %v, order = %v, want empty", st.live, order)
	}
	if h := st.hist["u"]; len(h) != 1 || h[0].Output != "a" {
		t.Fatalf("history = %+v, want the single completion", h)
	}
}

// failAfterSyncer accepts n writes then fails permanently — the
// disk-gone case, which must wedge the journal, not the pool.
type failAfterSyncer struct{ n int }

func (f *failAfterSyncer) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk gone")
	}
	f.n--
	return len(p), nil
}

func (f *failAfterSyncer) Sync() error { return nil }

func TestJournalWriteErrorWedgesJournalNotPool(t *testing.T) {
	ob := obs.NewObserver(nil)
	j := NewJournal(&failAfterSyncer{n: 2}, JournalOpts{})
	p := NewPool(PoolConfig{Workers: 1, Journal: j, Observer: ob})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Submit("u", "echo", fmt.Sprintf("j%d", i)); err != nil {
			t.Fatalf("pool must keep serving after journal death: %v", err)
		}
	}
	if err := p.Journal().Err(); err == nil {
		t.Fatal("journal should be wedged")
	}
	recs, _ := j.Stats()
	if recs != 2 {
		t.Fatalf("journal persisted %d records, want the 2 pre-failure ones", recs)
	}
	if len(p.History("u")) != 6 {
		t.Fatalf("history = %d entries, want all 6", len(p.History("u")))
	}
	if got := ob.Snapshot().Metrics.Counters["pool_journal_errors_total"]; got != 1 {
		t.Fatalf("pool_journal_errors_total = %d, want 1 (first error only)", got)
	}
}

// serialJournalDigests are the SHA-256 digests of the two journals
// TestJournalSerialDigest writes: a serial run's, and that of a pool
// recovered from it. The on-disk format and the record order of a
// serial run are fixed, so these change only with the format itself.
var serialJournalDigests = [2]string{
	"e2401b70468afec8b19fb8dc08ca01796665199a350b1e415baeb153a3542095",
	"d92ac704b35d02c38116434545c4246587a5224ebc13e713ddebba040fab8a4a",
}

// TestJournalSerialDigest pins the exact bytes of a serial run's
// journal — one worker, one submitter, a fake clock, timers that never
// fire — covering admits, starts, dones, quota sheds and a deadline
// expired on pop. It then recovers a pool from that journal cut just
// after the last start record, so one ticket is mid-flight, lets it
// re-run, and pins the recovered pool's journal too: its chain
// snapshot, the one snapshot a journal holds, and a replayed done.
func TestJournalSerialDigest(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(9000, 0).UTC(), time.Millisecond)
	never := func(time.Duration) <-chan time.Time { return nil }
	cfg := PoolConfig{Workers: 1, Clock: clk.Now, After: never,
		QuotaRate: 50, QuotaBurst: 3, HistoryLimit: 4}
	p, ms := journaledPool(cfg, JournalOpts{})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		user := []string{"alice", "bob"}[i%2]
		if _, err := p.Submit(user, "echo", fmt.Sprintf("%s/%d", user, i)); err != nil && !errors.Is(err, ErrQuotaExceeded) {
			t.Fatal(err)
		}
	}
	tk, err := p.SubmitAsyncOpts("carol", "echo", "late", TicketOpts{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(nil); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Wait = %v, want ErrDeadline", err)
	}
	p.Close()
	data := ms.Bytes()

	// Cut just after the last start record: that ticket is mid-flight.
	cut := 0
	for off := 0; off+8 <= len(data); {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if data[off+8] == recStart {
			cut = end
		}
		off = end
	}
	ms2 := &memSyncer{}
	cfg.Journal, cfg.Observer = NewJournal(ms2, JournalOpts{}), obs.NewObserver(nil)
	p2, rep, err := RecoverPool(cfg, bytes.NewReader(data[:cut]), echoTool())
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
	if rep.Rerun != 1 {
		t.Fatalf("recovery re-ran %d tickets, want the 1 mid-flight", rep.Rerun)
	}

	all := map[byte]int{}
	for i, data := range [][]byte{data, ms2.Bytes()} {
		var kinds []byte
		for off := 0; off+8 <= len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
			kinds = append(kinds, data[off+8])
			all[data[off+8]]++
		}
		snaps := bytes.Count(kinds, []byte{recSnapshot})
		if want := i; snaps != want || (i == 1 && kinds[0] != recSnapshot) {
			t.Fatalf("journal %d holds %d snapshot records (kinds %v), want %d, as record 0", i, snaps, kinds, want)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != serialJournalDigests[i] {
			t.Fatalf("journal %d digest = %s, want %s (%d bytes, records by kind %v)",
				i, got, serialJournalDigests[i], len(data), kinds)
		}
	}
	for kind := recAdmit; kind <= recShed; kind++ {
		if all[kind] == 0 {
			t.Fatalf("no %s record in the serial run or its recovery: %v", recKindName(kind), all)
		}
	}
}

// slowSyncer is a journal target whose Sync takes a while, like an
// fsync, and records what it made durable: covered is how many bytes
// had been written when the latest finished Sync began.
type slowSyncer struct {
	delay time.Duration
	fail  int // Syncs that succeed before every later one fails (0 = never fail)

	mu      sync.Mutex
	buf     bytes.Buffer
	covered int
	syncs   int
}

func (s *slowSyncer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *slowSyncer) Sync() error {
	s.mu.Lock()
	start := s.buf.Len()
	s.syncs++
	failed := s.fail > 0 && s.syncs > s.fail
	s.mu.Unlock()
	time.Sleep(s.delay)
	if failed {
		return errors.New("fsync: I/O error")
	}
	s.mu.Lock()
	s.covered = start
	s.mu.Unlock()
	return nil
}

func (s *slowSyncer) durableBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.covered
}

func (s *slowSyncer) syncCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

func (s *slowSyncer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

// frameEnd returns the offset just past the journal record of the
// given kind (admit, start, or done) for ticket seq, or -1.
func frameEnd(data []byte, kind byte, seq uint64) int {
	for off := 0; off+8 <= len(data); {
		end := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if data[off+8] == kind {
			if s, n := binary.Uvarint(data[off+9:]); n > 0 && s == seq {
				return end
			}
		}
		off = end
	}
	return -1
}

// TestJournalGroupCommitDurableBeforeAck checks the durability
// contract with syncs shared across concurrent transitions: SubmitAsync
// returns only after a finished Sync covers the admit record, the tool
// runs only after one covers the start record, and Wait returns only
// after one covers the done record.
func TestJournalGroupCommitDurableBeforeAck(t *testing.T) {
	ss := &slowSyncer{delay: time.Millisecond}
	ob := obs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: 4, QueueDepth: 64, Observer: ob,
		Journal: NewJournal(ss, JournalOpts{})})
	var atRun sync.Map // input → durable bytes when Run began
	if err := p.Register(toolFunc{name: "rec", desc: "records durability at start",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			atRun.Store(input, ss.durableBytes())
			return input, nil
		}}); err != nil {
		t.Fatal(err)
	}
	const users, jobs = 8, 10
	var mu sync.Mutex
	tickets := map[string]*Ticket{}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				input := fmt.Sprintf("u%d/%d", u, i)
				tk, err := p.SubmitAsync(fmt.Sprintf("u%d", u), "rec", input)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := ss.durableBytes(), frameEnd(ss.Bytes(), recAdmit, tk.seq); want < 0 || got < want {
					t.Errorf("%s: SubmitAsync returned with %d bytes durable, admit record ends at %d", input, got, want)
				}
				if _, err := tk.Wait(nil); err != nil {
					t.Error(err)
					return
				}
				if got, want := ss.durableBytes(), frameEnd(ss.Bytes(), recDone, tk.seq); want < 0 || got < want {
					t.Errorf("%s: Wait returned with %d bytes durable, done record ends at %d", input, got, want)
				}
				mu.Lock()
				tickets[input] = tk
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	p.Close()

	data := ss.Bytes()
	for input, tk := range tickets {
		v, ok := atRun.Load(input)
		if !ok {
			t.Fatalf("%s never ran", input)
		}
		if want := frameEnd(data, recStart, tk.seq); want < 0 || v.(int) < want {
			t.Errorf("%s: tool ran with %d bytes durable, start record ends at %d", input, v, want)
		}
	}
	// Stats and the counters count a record once a Sync covers it: after
	// Close every record is covered.
	records, nbytes := p.Journal().Stats()
	if want := int64(3 * users * jobs); records != want || nbytes != int64(len(data)) {
		t.Fatalf("Stats = %d records / %d bytes, want %d / %d", records, nbytes, want, len(data))
	}
	m := ob.Snapshot().Metrics.Counters
	if m["pool_journal_bytes_total"] != nbytes {
		t.Fatalf("pool_journal_bytes_total = %d, want %d", m["pool_journal_bytes_total"], nbytes)
	}
	if got, want := m["pool_journal_syncs_total"], int64(ss.syncCount()); got != want {
		t.Fatalf("pool_journal_syncs_total = %d, want the %d Syncs made", got, want)
	}
}

// TestJournalGroupCommitBatchesSyncs: concurrent submitters share
// fsyncs, so there are fewer Syncs than records.
func TestJournalGroupCommitBatchesSyncs(t *testing.T) {
	ss := &slowSyncer{delay: time.Millisecond}
	p := NewPool(PoolConfig{Workers: 4, QueueDepth: 64, Observer: obs.NewObserver(nil),
		Journal: NewJournal(ss, JournalOpts{})})
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	const submitters, jobs = 32, 4
	var wg sync.WaitGroup
	for u := 0; u < submitters; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				if _, err := p.Submit(fmt.Sprintf("u%d", u), "echo", "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	p.Close()
	records, _ := p.Journal().Stats()
	if records != 3*submitters*jobs {
		t.Fatalf("journal holds %d records, want %d", records, 3*submitters*jobs)
	}
	if syncs := ss.syncCount(); int64(syncs) >= records {
		t.Fatalf("%d Syncs for %d records: concurrent transitions did not share fsyncs", syncs, records)
	}
}

// TestJournalSyncErrorWedgesJournalNotPool: a failing Sync wedges the
// journal — waiters return, nothing more is written — while the pool
// keeps serving every submission.
func TestJournalSyncErrorWedgesJournalNotPool(t *testing.T) {
	ob := obs.NewObserver(nil)
	ss := &slowSyncer{delay: 100 * time.Microsecond, fail: 3}
	p := NewPool(PoolConfig{Workers: 2, QueueDepth: 64, Observer: ob,
		Journal: NewJournal(ss, JournalOpts{})})
	defer p.Close()
	if err := p.Register(echoTool()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < 4; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := p.Submit(fmt.Sprintf("u%d", u), "echo", "x"); err != nil {
					t.Errorf("pool must keep serving after a failed fsync: %v", err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	err := p.Journal().Err()
	if err == nil || !strings.Contains(err.Error(), "journal sync") {
		t.Fatalf("journal Err = %v, want the sync error", err)
	}
	for u := 0; u < 4; u++ {
		if n := len(p.History(fmt.Sprintf("u%d", u))); n != 5 {
			t.Fatalf("u%d history = %d entries, want 5", u, n)
		}
	}
	if got := ob.Snapshot().Metrics.Counters["pool_journal_errors_total"]; got != 1 {
		t.Fatalf("pool_journal_errors_total = %d, want 1 (first error only)", got)
	}
	// Only the records the three good Syncs covered count as durable.
	records, nbytes := p.Journal().Stats()
	if nbytes != int64(ss.durableBytes()) || records == 0 {
		t.Fatalf("Stats = %d records / %d bytes, want the %d bytes the good Syncs covered",
			records, nbytes, ss.durableBytes())
	}
	written := len(ss.Bytes())
	if _, err := p.Submit("late", "echo", "x"); err != nil {
		t.Fatal(err)
	}
	if len(ss.Bytes()) != written {
		t.Fatal("a wedged journal must write no further bytes")
	}
}
