package obs

// ring is a bounded buffer that keeps the newest cap items and counts
// the ones it overwrites. It has no lock of its own: the Tracer and
// EventLog that own one guard it with theirs.
type ring[T any] struct {
	buf     []T
	cap     int
	next    int // next write slot; the oldest item once buf is full
	dropped int64
}

// push appends v, overwriting (and counting) the oldest item when full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.dropped++
	}
	r.next = (r.next + 1) % r.cap
}

// items returns a copy of the retained items, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}
