package portal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"vlsicad/internal/obs"
)

// The ticket journal is an append-only write-ahead log: every ticket
// transition (admitted → running → done/expired/cancelled) is framed,
// checksummed, and written through an injectable WriteSyncer, and
// synced before the transition becomes observable, so RecoverPool can
// replay the log into a warm pool after a restart. Writes and syncs
// are separate steps: concurrent transitions share one Sync (group
// commit). Frame layout:
//
//	| u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload |
//
// The payload is one record: a kind byte followed by varint/length-
// prefixed fields (see append*/decode* below). A record cut short by
// a crash mid-write fails the length or checksum test and is handled
// by the reader as a torn tail (silently truncated at end of log) or
// as corruption (ErrJournalCorrupt, replay stops at the last good
// record). Each fact is written once: a done record leaves the tool
// and input to its ticket's admit record, and a snapshot record — the
// full pool state — is written only as record 0 of the journal
// RecoverPool gives a recovered pool. Replay still resets its state at
// a snapshot anywhere in the log, so older journals (snapshots mid-log,
// inputs repeated in done records, logs concatenated after a restart)
// replay as before.

// WriteSyncer is the journal's durability contract: Write appends
// bytes and Sync makes everything written so far durable. *os.File
// satisfies it; tests inject buffers and fault.CrashWriter.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// ErrJournalCorrupt marks a journal whose bytes decode to a framed
// record that fails its checksum or cannot be parsed — distinct from
// a torn tail (an incomplete final record, the signature of a crash
// mid-write), which is truncated silently. Replay keeps everything up
// to the last good record and surfaces this wrapped error.
var ErrJournalCorrupt = errors.New("portal: journal corrupt")

// Record kinds. The byte values are part of the on-disk format: never
// renumber, only append.
const (
	recAdmit    = byte(1) // a ticket entered the queue
	recStart    = byte(2) // a worker began executing the ticket
	recDone     = byte(3) // the ticket reached a terminal state
	recSnapshot = byte(4) // full pool state; replay restarts here
	// recShed records a shed admission's quota-bucket side effect: a
	// failed or refunded admission still refills the user's bucket and
	// advances its timestamp, so replay must touch the bucket at the
	// same instant for recovered quota state to be exact.
	recShed = byte(5)
)

// recKindName labels a record kind for pool_journal_records_total.
func recKindName(kind byte) string {
	switch kind {
	case recAdmit:
		return "admit"
	case recStart:
		return "start"
	case recDone:
		return "done"
	case recSnapshot:
		return "snapshot"
	case recShed:
		return "shed"
	}
	return "unknown"
}

// Done-record terminal states (on-disk values; append only).
const (
	doneCompleted = byte(0)
	doneExpired   = byte(1)
	doneCancelled = byte(2)
	doneReplayed  = byte(3) // completed re-run of a mid-flight recovery
)

// maxRecordLen bounds a single record's declared payload length. Real
// records are far smaller; a length past this is treated like a torn
// tail rather than an allocation request.
const maxRecordLen = 1 << 28

// JournalOpts tunes a Journal.
type JournalOpts struct {
	// Deprecated: CompactEvery is ignored. The pool no longer writes
	// periodic snapshots: replay decodes the journal from offset 0
	// whatever it holds, so a snapshot bounded neither the file nor
	// recovery. The field stays only so existing callers still build.
	CompactEvery int
}

// Journal is the pool's append-only transition log. Appends are
// serialized, framed, checksummed, and written in order; durable then
// waits until a Sync covers a given record, and concurrent waiters
// share one Sync — the first to find none running leads it, outside
// the lock, for everything written so far. The first write or sync
// error wedges the journal — the pool stays available and keeps
// serving (availability over durability), waiters return, the error is
// counted on pool_journal_errors_total and reported by Err, and no
// further bytes are written.
type Journal struct {
	mu sync.Mutex
	w  WriteSyncer

	buf     []byte // reused frame-encoding scratch
	err     error  // first write/sync error; wedges the journal
	records int64  // records covered by a finished Sync
	bytes   int64  // frame bytes covered by a finished Sync

	// Group commit. Marks are log positions in bytes written: a record's
	// mark is the position just past its frame. written is the end of
	// the log, synced the end a finished Sync covered. pend counts the
	// records and bytes written since the running or next Sync began,
	// so the metrics below count a record once a Sync covers it.
	written   int64
	synced    int64
	syncing   bool       // a leader is in Sync, outside mu
	syncDone  *sync.Cond // broadcast when a Sync finishes; uses mu
	pendRecs  [6]int64
	pendBytes int64

	// Metric children, resolved by bind when a pool attaches.
	recs   [6]*obs.Counter // pool_journal_records_total{kind}, indexed by kind byte
	bytesC *obs.Counter    // pool_journal_bytes_total
	errsC  *obs.Counter    // pool_journal_errors_total
	syncsC *obs.Counter    // pool_journal_syncs_total
}

// NewJournal builds a journal over w. The caller owns w's lifetime;
// the journal never closes it. No JournalOpts field has any effect.
func NewJournal(w WriteSyncer, _ JournalOpts) *Journal {
	j := &Journal{w: w}
	j.syncDone = sync.NewCond(&j.mu)
	return j
}

// bind resolves the journal's metric children on ob (nil-safe).
func (j *Journal) bind(ob *obs.Observer) {
	if j == nil {
		return
	}
	vec := ob.CounterVec("pool_journal_records_total", "kind")
	j.mu.Lock()
	for kind := byte(1); kind <= recShed; kind++ {
		j.recs[kind] = vec.With(recKindName(kind))
	}
	j.bytesC = ob.Counter("pool_journal_bytes_total")
	j.errsC = ob.Counter("pool_journal_errors_total")
	j.syncsC = ob.Counter("pool_journal_syncs_total")
	j.mu.Unlock()
}

// Err reports the first write or sync error, if any — a wedged
// journal stopped persisting at that point.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Stats reports how many records and frame bytes a finished Sync has
// made durable.
func (j *Journal) Stats() (records, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.bytes
}

// fail wedges the journal on its first error. Callers hold j.mu.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
		j.errsC.Inc()
	}
}

// append frames, checksums, and writes one record payload, and returns
// its mark for durable (0 once the journal is wedged). It does not
// sync.
func (j *Journal) append(kind byte, payload []byte) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0
	}
	frame := j.buf[:0]
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	j.buf = frame[:0]
	if _, err := j.w.Write(frame); err != nil {
		j.fail(fmt.Errorf("portal: journal write: %w", err))
		return 0
	}
	j.written += int64(len(frame))
	j.pendRecs[kind]++
	j.pendBytes += int64(len(frame))
	return j.written
}

// durable blocks until a finished Sync covers mark, or the journal is
// wedged. The first caller to find no Sync running leads one for
// everything written so far, outside j.mu so writers keep appending;
// callers that arrive meanwhile wait for it and, if it does not cover
// them, join the next. Nil-safe.
func (j *Journal) durable(mark int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.err == nil && j.synced < mark {
		if j.syncing {
			j.syncDone.Wait()
			continue
		}
		j.syncing = true
		target, recs, bytes := j.written, j.pendRecs, j.pendBytes
		j.pendRecs, j.pendBytes = [6]int64{}, 0
		j.mu.Unlock()
		err := j.w.Sync()
		j.mu.Lock()
		j.syncing = false
		j.syncsC.Inc()
		if err != nil {
			j.fail(fmt.Errorf("portal: journal sync: %w", err))
		} else {
			j.synced = target
			for kind, n := range recs {
				j.records += n
				j.recs[kind].Add(n)
			}
			j.bytes += bytes
			j.bytesC.Add(bytes)
		}
		j.syncDone.Broadcast()
	}
}

// ---- payload encoding -------------------------------------------------
//
// Fields are appended with binary varints (unsigned for counts and
// lengths, zig-zag for signed values), length-prefixed strings, and
// fixed 8-byte little-endian float bits. Times travel as UnixNano
// varints with 0 reserved for the zero time.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(b, 0)
	}
	return binary.AppendVarint(b, t.UnixNano())
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// payloadReader decodes one record payload with bounds checking; the
// first malformed field poisons it and every later read returns zero
// values, so decoders can check err once at the end.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = errors.New("truncated field")
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *payloadReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.fail()
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *payloadReader) time() time.Time {
	v := r.varint()
	if v == 0 {
		return time.Time{}
	}
	// Times are normalized to UTC: the journal stores only the instant,
	// and replayed state must be bit-identical regardless of the
	// recovering process's local zone.
	return time.Unix(0, v).UTC()
}

func (r *payloadReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a collection length and sanity-bounds it against the
// remaining payload (every element costs at least one byte), so a
// fuzzer-crafted count can never drive a giant allocation.
func (r *payloadReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// ---- record payloads --------------------------------------------------

func appendJobResult(b []byte, res JobResult) []byte {
	b = appendString(b, res.Tool)
	b = appendString(b, res.Input)
	b = appendString(b, res.Output)
	b = appendString(b, res.Err)
	b = appendVarint(b, int64(res.Duration))
	b = appendBool(b, res.TimedOut)
	b = appendBool(b, res.Abandoned)
	b = appendUvarint(b, uint64(res.Attempts))
	b = appendTime(b, res.When)
	b = appendBool(b, res.Replayed)
	return b
}

func (r *payloadReader) jobResult() JobResult {
	var res JobResult
	res.Tool = r.string()
	res.Input = r.string()
	res.Output = r.string()
	res.Err = r.string()
	res.Duration = time.Duration(r.varint())
	res.TimedOut = r.bool()
	res.Abandoned = r.bool()
	res.Attempts = int(r.uvarint())
	res.When = r.time()
	res.Replayed = r.bool()
	return res
}

// admitRec is the decoded form of a recAdmit payload; it doubles as
// the snapshot's live-ticket entry. Replay sets running on a start
// record; a chain snapshot writes every ticket queued, but an older
// journal's mid-log snapshot sets it for tickets a worker held then.
type admitRec struct {
	seq      uint64
	user     string
	tool     string
	input    string
	queuedAt time.Time
	deadline time.Time
	running  bool
	replayed bool
}

func appendAdmitFields(b []byte, a admitRec) []byte {
	b = appendUvarint(b, a.seq)
	b = appendString(b, a.user)
	b = appendString(b, a.tool)
	b = appendString(b, a.input)
	b = appendTime(b, a.queuedAt)
	b = appendTime(b, a.deadline)
	b = appendBool(b, a.running)
	b = appendBool(b, a.replayed)
	return b
}

func (r *payloadReader) admitFields() admitRec {
	var a admitRec
	a.seq = r.uvarint()
	a.user = r.string()
	a.tool = r.string()
	a.input = r.string()
	a.queuedAt = r.time()
	a.deadline = r.time()
	a.running = r.bool()
	a.replayed = r.bool()
	return a
}

// doneRec is the decoded form of a recDone payload.
type doneRec struct {
	seq   uint64
	state byte // doneCompleted/doneExpired/doneCancelled/doneReplayed
	ran   bool // whether a history entry was produced (worker path)
	res   JobResult
}

// appendAdmit journals a ticket admission and returns its mark.
// Callers hold p.jmu.
func (j *Journal) appendAdmit(tk *Ticket) int64 {
	payload := []byte{recAdmit}
	payload = appendAdmitFields(payload, admitRec{
		seq: tk.seq, user: tk.user, tool: tk.tool, input: tk.input,
		queuedAt: tk.queuedAt, deadline: tk.deadline, replayed: tk.replayed,
	})
	return j.append(recAdmit, payload)
}

// appendStart journals a queued→running transition.
func (j *Journal) appendStart(seq uint64) int64 {
	payload := []byte{recStart}
	payload = appendUvarint(payload, seq)
	return j.append(recStart, payload)
}

// appendDone journals a terminal transition. The result's tool and
// input are its ticket's, which the admit record already holds, so
// they are written as empty strings and replay fills them back in.
func (j *Journal) appendDone(d doneRec) int64 {
	d.res.Tool, d.res.Input = "", ""
	return j.append(recDone, encodeDone(d))
}

// encodeDone renders a done-record payload as given; older journals
// wrote the tool and input here too.
func encodeDone(d doneRec) []byte {
	b := []byte{recDone}
	b = appendUvarint(b, d.seq)
	b = append(b, d.state)
	b = appendBool(b, d.ran)
	return appendJobResult(b, d.res)
}

// appendShed journals a shed admission's quota-bucket touch.
func (j *Journal) appendShed(user string, now time.Time) int64 {
	payload := []byte{recShed}
	payload = appendString(payload, user)
	payload = appendTime(payload, now)
	return j.append(recShed, payload)
}

// poolSnapshot is the full recoverable pool state — what a snapshot
// record carries and what replay reconstructs.
type poolSnapshot struct {
	ledger  Ledger
	nextSeq uint64
	// hist holds each user's retained history exactly as the shard
	// stores it (raw, pre-trim slice), so the HistoryLimit block-trim
	// boundary replays identically after recovery.
	hist  map[string][]JobResult
	quota map[string]quotaBucket
	live  map[uint64]*admitRec
}

func newPoolSnapshot() *poolSnapshot {
	return &poolSnapshot{
		hist:  map[string][]JobResult{},
		quota: map[string]quotaBucket{},
		live:  map[uint64]*admitRec{},
	}
}

// encodeSnapshot renders a snapshot payload. Map iteration order is
// made deterministic (users sorted, live tickets by seq) so the same
// state always encodes to the same bytes.
func encodeSnapshot(s *poolSnapshot) []byte {
	b := []byte{recSnapshot}
	b = appendUvarint(b, uint64(s.ledger.Admitted))
	b = appendUvarint(b, uint64(s.ledger.Completed))
	b = appendUvarint(b, uint64(s.ledger.Expired))
	b = appendUvarint(b, uint64(s.ledger.Cancelled))
	b = appendUvarint(b, uint64(s.ledger.Replayed))
	b = appendUvarint(b, s.nextSeq)

	users := sortedKeys(s.hist)
	b = appendUvarint(b, uint64(len(users)))
	for _, u := range users {
		b = appendString(b, u)
		h := s.hist[u]
		b = appendUvarint(b, uint64(len(h)))
		for _, res := range h {
			b = appendJobResult(b, res)
		}
	}

	qusers := sortedKeys(s.quota)
	b = appendUvarint(b, uint64(len(qusers)))
	for _, u := range qusers {
		bkt := s.quota[u]
		b = appendString(b, u)
		b = appendFloat(b, bkt.tokens)
		b = appendTime(b, bkt.last)
	}

	seqs := make([]uint64, 0, len(s.live))
	for seq := range s.live {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	b = appendUvarint(b, uint64(len(seqs)))
	for _, seq := range seqs {
		b = appendAdmitFields(b, *s.live[seq])
	}
	return b
}

func (r *payloadReader) snapshot() *poolSnapshot {
	s := newPoolSnapshot()
	s.ledger.Admitted = int64(r.uvarint())
	s.ledger.Completed = int64(r.uvarint())
	s.ledger.Expired = int64(r.uvarint())
	s.ledger.Cancelled = int64(r.uvarint())
	s.ledger.Replayed = int64(r.uvarint())
	s.nextSeq = r.uvarint()

	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		u := r.string()
		m := r.count()
		h := make([]JobResult, 0, m)
		for j := 0; j < m && r.err == nil; j++ {
			h = append(h, r.jobResult())
		}
		if r.err == nil {
			s.hist[u] = h
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		u := r.string()
		var bkt quotaBucket
		bkt.tokens = r.float()
		bkt.last = r.time()
		if r.err == nil {
			s.quota[u] = bkt
		}
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		a := r.admitFields()
		if r.err == nil {
			s.live[a.seq] = &a
		}
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
