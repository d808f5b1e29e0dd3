package obs

// Exported only to this package's tests: nothing else calls these, so
// they are declared here and not in the production tree.

// Add increments the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Len returns the number of spans currently recorded across all tracks.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	var n int64
	for _, b := range t.layout.Load().all {
		n += b.published.Load()
	}
	return int(n)
}

// Reset discards all recorded spans and the dropped count (the epoch and
// the tracks are kept, so offsets from before and after a Reset remain
// comparable).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.lost.Store(0)
	for _, b := range t.layout.Load().all {
		b.published.Store(0)
		b.cur.Store(0)
	}
}
