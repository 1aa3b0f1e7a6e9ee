package portal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"time"
)

// Ledger is the pool's conservation law: every admitted ticket must
// land in exactly one terminal bucket. At quiescence (all admitted
// tickets terminal) Admitted == Completed+Expired+Cancelled+Replayed —
// the invariant the restart chaos suite proves across crashes.
type Ledger struct {
	// Admitted counts tickets that entered the queue (including ones
	// restored by RecoverPool — a recovery never re-admits).
	Admitted int64
	// Completed counts tickets whose tool ran to a terminal result on
	// the first lifetime (success or tool failure alike).
	Completed int64
	// Expired counts ErrDeadline terminations, Cancelled counts
	// ErrCancelled ones (including recovered tickets whose tool is no
	// longer registered).
	Expired   int64
	Cancelled int64
	// Replayed counts mid-flight tickets that were re-run after a
	// recovery and completed — the at-least-once bucket.
	Replayed int64
}

// Balanced reports whether the conservation law currently holds; only
// meaningful when the pool is quiescent (e.g. after Close).
func (l Ledger) Balanced() bool {
	return l.Admitted == l.Completed+l.Expired+l.Cancelled+l.Replayed
}

// count books one terminal transition, by its done-record state, in
// its bucket — the one rule the live pool and journal replay share.
func (l *Ledger) count(state byte) {
	switch state {
	case doneExpired:
		l.Expired++
	case doneCancelled:
		l.Cancelled++
	case doneReplayed:
		l.Replayed++
	default:
		l.Completed++
	}
}

// Ledger returns a snapshot of the pool's ticket conservation
// counters.
func (p *Pool) Ledger() Ledger {
	p.jmu.Lock()
	defer p.jmu.Unlock()
	return p.ledger
}

// RecoveryReport describes what RecoverPool reconstructed.
type RecoveryReport struct {
	// Records is how many valid records replayed; Bytes is the byte
	// length of that valid prefix.
	Records int
	Bytes   int64
	// TornBytes is the length of an incomplete trailing record
	// discarded as a torn tail (a crash mid-write).
	TornBytes int64
	// SnapshotUsed reports whether replay restarted from a snapshot
	// record instead of the log's beginning: the chain snapshot a
	// recovered pool's journal starts with, or a snapshot that an older
	// journal or a concatenated log holds mid-log.
	SnapshotUsed bool
	// Requeued counts restored tickets that had not started (re-queued
	// in original admission order); Rerun counts mid-flight tickets
	// re-executed at-least-once (marked Replayed in history); Expired
	// counts restored tickets already past their deadline; Orphaned
	// counts tickets whose tool is no longer registered (cancelled).
	Requeued int
	Rerun    int
	Expired  int
	Orphaned int
	// HistoryUsers and HistoryEntries size the restored history.
	HistoryUsers   int
	HistoryEntries int
	// Ledger is the restored conservation state at the recovery
	// instant, before any restored ticket re-executes.
	Ledger Ledger
}

// replayJournal decodes data into the pool state it describes plus the
// admission order of still-live tickets. A torn tail (incomplete final
// record) is truncated silently; a record that fails its checksum or
// cannot be decoded stops replay with an ErrJournalCorrupt-wrapped
// error — the state up to the last good record is still returned.
func replayJournal(data []byte, cfg PoolConfig) (*poolSnapshot, []uint64, *RecoveryReport, error) {
	st := newPoolSnapshot()
	// Quota buckets replay through a real table, so every admission and
	// shed touches them by the live rule.
	quota := newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst)
	rep := &RecoveryReport{}
	var order []uint64
	seen := map[uint64]struct{}{}
	var floor uint64 // seqs at or below this were assigned before the last snapshot
	var corrupt error

	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < 8 {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(n) > maxRecordLen || int(uint64(n)) > rest-8 {
			break // torn payload (or a length scribbled by the crash)
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			corrupt = fmt.Errorf("%w: record %d at offset %d fails checksum", ErrJournalCorrupt, rep.Records, off)
			break
		}

		// Decode the whole record before applying any of it, so a
		// malformed record never half-mutates the state.
		r := &payloadReader{b: payload}
		kind := r.byte()
		var (
			adm  admitRec
			seq  uint64
			done doneRec
			snap *poolSnapshot
			user string
			at   time.Time
		)
		switch kind {
		case recAdmit:
			adm = r.admitFields()
		case recStart:
			seq = r.uvarint()
		case recDone:
			done.seq = r.uvarint()
			done.state = r.byte()
			done.ran = r.bool()
			done.res = r.jobResult()
		case recSnapshot:
			snap = r.snapshot()
		case recShed:
			user = r.string()
			at = r.time()
		default:
			r.fail()
		}
		if r.err != nil {
			corrupt = fmt.Errorf("%w: record %d at offset %d: %v", ErrJournalCorrupt, rep.Records, off, r.err)
			break
		}

		switch kind {
		case recAdmit:
			_, dup := seen[adm.seq]
			if !dup && adm.seq > floor {
				seen[adm.seq] = struct{}{}
				rec := adm
				st.live[rec.seq] = &rec
				order = append(order, rec.seq)
				st.ledger.Admitted++
				if rec.seq > st.nextSeq {
					st.nextSeq = rec.seq
				}
				quota.touch(rec.user, rec.queuedAt, true)
			}
		case recStart:
			if rec, ok := st.live[seq]; ok {
				rec.running = true
			}
		case recDone:
			rec, ok := st.live[done.seq]
			if !ok {
				break // duplicate or unknown: first terminal record wins
			}
			delete(st.live, done.seq)
			st.ledger.count(done.state)
			if done.ran {
				// The admit record owns the tool and input; a done record
				// that repeats them (an older journal) holds the same.
				done.res.Tool, done.res.Input = rec.tool, rec.input
				st.hist[rec.user] = appendHistory(st.hist[rec.user], done.res, cfg.HistoryLimit)
			}
		case recSnapshot:
			st = snap
			quota = newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst)
			quota.restore(st.quota)
			rep.SnapshotUsed = true
			floor = st.nextSeq
			order = order[:0]
			seen = make(map[uint64]struct{}, len(st.live))
			for s := range st.live {
				order = append(order, s)
				seen[s] = struct{}{}
			}
			sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		case recShed:
			quota.touch(user, at, false)
		}

		rep.Records++
		off += 8 + int(n)
	}
	st.quota = quota.snapshot()
	rep.Bytes = int64(off)
	if corrupt == nil {
		rep.TornBytes = int64(len(data) - off)
	}

	// Drop order entries for tickets that later terminated.
	liveOrder := order[:0]
	for _, s := range order {
		if _, ok := st.live[s]; ok {
			liveOrder = append(liveOrder, s)
		}
	}
	for _, h := range st.hist {
		rep.HistoryEntries += len(h)
	}
	rep.HistoryUsers = len(st.hist)
	return st, liveOrder, rep, corrupt
}

// appendHistory applies the pool's exact retention rule — including
// the 2×limit block-trim boundary — so replayed history is
// byte-identical to what the crashed pool held.
func appendHistory(h []JobResult, res JobResult, lim int) []JobResult {
	h = append(h, res)
	if lim > 0 && len(h) >= 2*lim {
		h = append(h[:0:0], h[len(h)-lim:]...)
	}
	return h
}

// RecoverPool replays a ticket journal into a warm pool: ledger,
// per-user histories (HistoryLimit retention included), quota buckets,
// and the sequence counter are restored; still-live tickets re-enter
// the fair queue in original admission order with their original
// deadlines re-armed against the pool clock. Tickets that were
// mid-flight at the crash re-run at-least-once, marked Replayed in
// their history entry. Tools must be passed here (not Registered
// later) so recovered tickets resolve their executors.
//
// A torn tail is truncated silently. On ErrJournalCorrupt the valid
// prefix is still recovered and the warm pool is returned alongside
// the wrapped error, so callers choose between serving the prefix and
// refusing. When cfg.Journal is set, the restored state is first made
// durable as a snapshot record, so a second crash recovers through the
// new journal alone.
func RecoverPool(cfg PoolConfig, journal io.Reader, tools ...Tool) (*Pool, *RecoveryReport, error) {
	data, err := io.ReadAll(journal)
	if err != nil {
		return nil, nil, fmt.Errorf("portal: reading journal: %w", err)
	}
	ncfg := cfg.withDefaults()
	st, order, rep, corrupt := replayJournal(data, ncfg)

	p := newPool(ncfg)
	for _, t := range tools {
		if err := p.Register(t); err != nil {
			return nil, nil, err
		}
	}

	ob := p.obs
	sp := ob.StartSpan("portal.recover")

	// Install the replayed state, restored tickets included. p is not
	// shared yet: no worker, watchdog or caller can see it. chain is the
	// same state with every restored ticket queued, since none has
	// started in this pool yet.
	chain := *st
	chain.live = make(map[uint64]*admitRec, len(order))
	tickets := make([]*Ticket, 0, len(order))
	p.seq = st.nextSeq
	p.ledger = st.ledger
	p.history = st.hist
	p.quota.restore(st.quota)
	for _, seqNo := range order {
		rec := st.live[seqNo]
		// A ticket that was running (in any previous lifetime) stays
		// marked for at-least-once accounting even across chained
		// crashes.
		queued := *rec
		queued.running, queued.replayed = false, rec.replayed || rec.running
		chain.live[seqNo] = &queued
		tk := &Ticket{
			user: rec.user, tool: rec.tool, input: rec.input,
			queuedAt: rec.queuedAt, deadline: rec.deadline,
			te: p.entry(rec.tool), p: p,
			done: make(chan struct{}), quit: make(chan struct{}),
			seq: rec.seq, replayed: queued.replayed,
		}
		tsp := ob.StartSpan("portal.ticket")
		tsp.SetLabel("tool", rec.tool)
		tsp.SetLabel("user", rec.user)
		tsp.SetLabel("recovered", strconv.FormatBool(true))
		tk.sp = tsp
		tickets = append(tickets, tk)
	}
	// Chain durability: make the restored state the new journal's first
	// record, so recovery-after-recovery never needs the old log. This
	// is the one place a snapshot is written.
	if p.jr != nil {
		p.jr.durable(p.jr.append(recSnapshot, encodeSnapshot(&chain)))
	}
	rep.Ledger = st.ledger

	// Dispatch live tickets in original admission order. restore
	// bypasses the queue and share caps: these tickets were already
	// admitted once and must not be shed by their own recovery.
	disp := ob.CounterVec("pool_recovery_replayed_total", "disposition")
	now := p.clock()
	for _, tk := range tickets {
		switch {
		case tk.te == nil:
			rep.Orphaned++
			disp.With("orphaned").Inc()
			p.finish(tk, JobResult{}, fmt.Errorf("portal: recovered ticket for unregistered tool %q: %w", tk.tool, ErrCancelled), false)
		case !tk.deadline.IsZero() && !now.Before(tk.deadline):
			rep.Expired++
			disp.With("expired").Inc()
			p.finish(tk, JobResult{}, ErrDeadline, false)
		default:
			if st.live[tk.seq].running {
				rep.Rerun++
				disp.With("rerun").Inc()
			} else {
				rep.Requeued++
				disp.With("requeued").Inc()
			}
			p.fq.restore(tk)
			if !tk.deadline.IsZero() {
				go p.watchTicket(tk, tk.deadline.Sub(now))
			}
		}
	}

	p.start()

	sp.SetLabel("records", strconv.Itoa(rep.Records))
	sp.SetLabel("requeued", strconv.Itoa(rep.Requeued))
	sp.SetLabel("rerun", strconv.Itoa(rep.Rerun))
	sp.SetLabel("expired", strconv.Itoa(rep.Expired))
	sp.SetLabel("orphaned", strconv.Itoa(rep.Orphaned))
	sp.SetLabel("snapshot", strconv.FormatBool(rep.SnapshotUsed))
	sp.SetLabel("corrupt", strconv.FormatBool(corrupt != nil))
	sp.End()
	ob.Emit("pool.recovered", map[string]string{
		"records":  strconv.Itoa(rep.Records),
		"requeued": strconv.Itoa(rep.Requeued),
		"rerun":    strconv.Itoa(rep.Rerun),
	})

	if corrupt != nil {
		return p, rep, corrupt
	}
	return p, rep, nil
}
