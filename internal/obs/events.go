package obs

import (
	"sync"
	"time"
)

// Event is one structured telemetry record — a discrete operational
// fact (job abandoned, DRC violations found) rather than a metric
// sample.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultEventCapacity bounds the ring of a new EventLog.
const DefaultEventCapacity = 1024

// EventLog is a bounded ring of events; when full, the oldest are
// dropped (and counted). Safe for concurrent use and on nil.
type EventLog struct {
	mu    sync.Mutex
	clock func() time.Time
	ring  ring[Event]
	seq   int64
}

// NewEventLog returns an event log using the given clock (time.Now
// when nil) keeping at most DefaultEventCapacity events.
func NewEventLog(clock func() time.Time) *EventLog {
	if clock == nil {
		clock = time.Now
	}
	return &EventLog{clock: clock, ring: ring[Event]{cap: DefaultEventCapacity}}
}

// Emit appends an event. The fields map is copied. Safe on nil.
func (l *EventLog) Emit(kind string, fields map[string]string) {
	if l == nil {
		return
	}
	var cp map[string]string
	if len(fields) > 0 {
		cp = make(map[string]string, len(fields))
		for k, v := range fields {
			cp[k] = v
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.ring.push(Event{Seq: l.seq, Time: l.clock(), Kind: kind, Fields: cp})
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	out, _ := l.snapshot()
	return out
}

// snapshot is Snapshot plus how many events fell off the ring, both
// read under one lock hold.
func (l *EventLog) snapshot() ([]Event, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.items(), l.ring.dropped
}
