package portal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vlsicad/internal/obs"
)

// fuzzCfg is the recovery config the fuzzer replays under: a frozen
// clock and a never-firing timer, so no watchdog or timeout goroutine
// outlives an iteration regardless of what deadlines the input claims.
func fuzzCfg() PoolConfig {
	return PoolConfig{
		Workers: 1, QuotaRate: 1, QuotaBurst: 2, HistoryLimit: 3,
		Clock:    frozenClock(time.Unix(9000, 0).UTC()),
		After:    func(time.Duration) <-chan time.Time { return make(chan time.Time) },
		Observer: obs.NewObserver(nil),
	}
}

// fuzzSeedJournals builds the seed corpus: an empty log, a valid log
// in the older format exercising every record kind (a snapshot
// mid-log, tool and input repeated in a done record), a torn tail, a
// checksum flip, and a valid log in the current format (the chain
// snapshot first, done records without tool or input).
// TestWriteFuzzSeeds promotes these into testdata/fuzz.
func fuzzSeedJournals() [][]byte {
	t0 := time.Unix(9000, 0).UTC()
	ms := &memSyncer{}
	j := NewJournal(ms, JournalOpts{})
	j.appendAdmit(&Ticket{seq: 1, user: "u", tool: "echo", input: "a", queuedAt: t0})
	j.appendStart(1)
	j.appendAdmit(&Ticket{seq: 2, user: "v", tool: "gone", input: "b", queuedAt: t0,
		deadline: t0.Add(time.Minute)})
	j.appendShed("u", t0)
	j.append(recDone, encodeDone(doneRec{seq: 1, state: doneCompleted, ran: true,
		res: JobResult{Tool: "echo", Input: "a", Output: "a", When: t0}}))
	snap := newPoolSnapshot()
	snap.ledger = Ledger{Admitted: 2, Completed: 1}
	snap.nextSeq = 2
	snap.hist["u"] = []JobResult{{Tool: "echo", Input: "a", Output: "a", When: t0}}
	snap.quota["u"] = quotaBucket{tokens: 1, last: t0}
	snap.live[2] = &admitRec{seq: 2, user: "v", tool: "gone", input: "b",
		queuedAt: t0, deadline: t0.Add(time.Minute), running: true}
	j.append(recSnapshot, encodeSnapshot(snap))
	j.appendAdmit(&Ticket{seq: 3, user: "u", tool: "echo", input: "c", queuedAt: t0})

	valid := ms.Bytes()
	torn := append([]byte(nil), valid[:len(valid)-3]...)
	corrupt := append([]byte(nil), valid...)
	corrupt[8+1] ^= 0xff // inside the first record's payload

	ms = &memSyncer{}
	j = NewJournal(ms, JournalOpts{})
	snap.live[2].running, snap.live[2].replayed = false, true
	j.append(recSnapshot, encodeSnapshot(snap))
	j.appendAdmit(&Ticket{seq: 3, user: "u", tool: "echo", input: "c", queuedAt: t0})
	j.appendStart(3)
	j.appendShed("u", t0)
	j.appendDone(doneRec{seq: 3, state: doneCompleted, ran: true,
		res: JobResult{Tool: "echo", Input: "c", Output: "c", When: t0}})
	j.appendStart(2)
	return [][]byte{nil, valid, torn, corrupt, ms.Bytes()}
}

// FuzzJournalReplay feeds arbitrary bytes through replay and full
// recovery: no input may panic, leak a goroutine (never-firing timers
// guard that), or recover into an inconsistent ledger — every restored
// ticket must land in exactly one terminal bucket.
func FuzzJournalReplay(f *testing.F) {
	for _, s := range fuzzSeedJournals() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzCfg().withDefaults()
		st, order, rep, err := replayJournal(data, cfg)
		for _, s := range order {
			if _, ok := st.live[s]; !ok {
				t.Fatalf("order references dead seq %d", s)
			}
		}
		if rep.Bytes+rep.TornBytes > int64(len(data)) {
			t.Fatalf("bytes %d + torn %d overrun input %d", rep.Bytes, rep.TornBytes, len(data))
		}
		if err == nil && rep.Bytes+rep.TornBytes != int64(len(data)) {
			t.Fatalf("clean replay must account for every byte: %d+%d != %d",
				rep.Bytes, rep.TornBytes, len(data))
		}
		if err != nil && rep.TornBytes != 0 {
			t.Fatal("a corrupt record must not also be reported as a torn tail")
		}

		// Replay is deterministic.
		_, _, rep2, err2 := replayJournal(data, cfg)
		if *rep != *rep2 || (err == nil) != (err2 == nil) {
			t.Fatalf("replay not deterministic: %+v/%v vs %+v/%v", rep, err, rep2, err2)
		}

		// Recovery with no tools: every restored ticket is disposed of
		// exactly once (orphaned or expired), nothing runs.
		p, r, _ := RecoverPool(fuzzCfg(), bytes.NewReader(data))
		p.Close()
		base := r.Ledger
		led := p.Ledger()
		if r.Requeued != 0 || r.Rerun != 0 {
			t.Fatalf("no tools registered yet report claims runnable tickets: %+v", r)
		}
		if led.Admitted != base.Admitted || led.Completed != base.Completed ||
			led.Replayed != base.Replayed ||
			led.Cancelled != base.Cancelled+int64(r.Orphaned) ||
			led.Expired != base.Expired+int64(r.Expired) {
			t.Fatalf("toolless recovery ledger drifted: %+v from base %+v report %+v", led, base, r)
		}

		// Recovery with the echo tool: every runnable ticket drains to
		// completed (or replayed), under the frozen clock nothing else
		// can interfere.
		p3, r3, _ := RecoverPool(fuzzCfg(), bytes.NewReader(data), echoTool())
		p3.Close()
		b3 := r3.Ledger
		led3 := p3.Ledger()
		if led3.Completed != b3.Completed+int64(r3.Requeued) ||
			led3.Replayed != b3.Replayed+int64(r3.Rerun) ||
			led3.Cancelled != b3.Cancelled+int64(r3.Orphaned) ||
			led3.Expired != b3.Expired+int64(r3.Expired) ||
			led3.Admitted != b3.Admitted {
			t.Fatalf("tooled recovery ledger drifted: %+v from base %+v report %+v", led3, b3, r3)
		}
	})
}

// TestWriteFuzzSeeds regenerates the checked-in corpus under
// testdata/fuzz/FuzzJournalReplay. Run with WRITE_FUZZ_SEEDS=1 after
// changing the journal format.
func TestWriteFuzzSeeds(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set WRITE_FUZZ_SEEDS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{"seed-empty", "seed-valid", "seed-torn", "seed-corrupt", "seed-chain"}
	for i, data := range fuzzSeedJournals() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, names[i]), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
