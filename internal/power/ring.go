package power

// The capacities of a Governor's two logs. Unbounded, a week-long
// governed job's 100 ms samples would run to millions of rows. A
// governed sweep makes a few cap decisions per phase, so 512 of them
// hold hundreds of cycles.
const (
	maxSamples   = 4096
	maxDecisions = 512
)

// ring is a fixed-capacity log: the newest cap entries are retained in
// order, older ones are counted as dropped. A Governor runs on one
// goroutine and owns its rings, so they take no lock.
type ring[T any] struct {
	buf   []T
	cap   int
	next  int // write position once the ring is full
	total int
}

func (r *ring[T]) push(v T) {
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.cap
}

// items returns the retained entries oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// dropped is the number of evicted (oldest) entries.
func (r *ring[T]) dropped() int { return r.total - len(r.buf) }
