package power

import "repro/internal/perfctr"

// DefaultMaxSamples bounds a run's retained measurement timeline. The
// seed controller appended every 100 ms sample forever — a week-long
// governed job would hold millions of rows; the ring keeps the newest
// window and counts what it evicted.
const DefaultMaxSamples = 4096

// sampleRing is a fixed-capacity ring over the measurement timeline:
// the newest capacity samples are retained in order, older ones are
// counted as dropped.
type sampleRing struct {
	buf   []perfctr.Sample
	cap   int
	next  int // write position once the ring is full
	total int
}

func newSampleRing(capacity int) *sampleRing {
	if capacity <= 0 {
		capacity = DefaultMaxSamples
	}
	return &sampleRing{cap: capacity}
}

func (r *sampleRing) push(s perfctr.Sample) {
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % r.cap
}

// samples returns the retained timeline in chronological order.
func (r *sampleRing) samples() []perfctr.Sample {
	out := make([]perfctr.Sample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// dropped is the number of evicted (oldest) samples.
func (r *sampleRing) dropped() int { return r.total - len(r.buf) }
