package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded interval: a name, the track it belongs to, and
// its start offset and duration in nanoseconds since the tracer's epoch.
// Parent/child structure is implied by containment on a track.
type Span struct {
	Name  string
	Track Track
	Start int64 // ns since the tracer epoch
	Dur   int64 // ns
}

// End returns the span's end offset in nanoseconds since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// Track names one timeline of a trace: the pipeline, pool worker i,
// rank r or request lane l. Callers ask the tracer for the track they
// record on (Worker, Rank, Lane); the tracer lays the tracks out. The
// kind sits in the high bits, so tracks order pipeline, workers, ranks,
// lanes, each by number.
type Track int32

const (
	// Pipeline is the track of the goroutine driving the in situ loop or
	// the sweep: stage and cell spans land here.
	Pipeline Track = 0
	// NoTrack is the track of a span with nowhere to go (a request that
	// found every lane busy); the tracer counts it as dropped.
	NoTrack Track = -1
)

// The track kinds, in export order, and their display names.
const (
	kindWorker = 1 + iota
	kindRank
	kindLane
	numKinds
	kindShift = 24
)

var kindNames = [numKinds]string{"pipeline", "worker", "rank", "request lane"}

func (k Track) kind() int  { return int(k >> kindShift) }
func (k Track) index() int { return int(k & (1<<kindShift - 1)) }

// String is the track's display name: "pipeline", "worker 3", "rank 2",
// "request lane 0".
func (k Track) String() string {
	switch {
	case k == Pipeline:
		return kindNames[0]
	case k < 0 || k.kind() >= numKinds:
		return fmt.Sprintf("track %d", int32(k))
	}
	return fmt.Sprintf("%s %d", kindNames[k.kind()], k.index())
}

// trackCapacity is the span buffer size of each track. At one launch
// span per pool dispatch and a handful of stage spans per cycle, 1<<15
// spans absorb thousands of in situ cycles before dropping.
const trackCapacity = 1 << 15

// buffer is one track's lock-free span store. Writers reserve a slot
// with an atomic add; a reservation past capacity is counted as dropped.
// The published counter trails the cursor so readers never observe a
// half-written slot.
type buffer struct {
	track     Track
	spans     []Span
	cur       atomic.Int64 // reservation cursor (may exceed len(spans))
	published atomic.Int64 // slots fully written and safe to read
}

// layout is a tracer's track table: the buffer of every track it has,
// by kind and number, and in creation order. A new track replaces the
// whole layout, so recording reads it with one atomic load.
type layout struct {
	byKind [numKinds][]*buffer // nil: no such track yet
	all    []*buffer
}

func (l *layout) buffer(k Track) *buffer {
	if k < 0 || k.kind() >= numKinds {
		return nil
	}
	if row := l.byKind[k.kind()]; k.index() < len(row) {
		return row[k.index()]
	}
	return nil
}

// Tracer records spans on the tracks it lays out. A nil Tracer is valid
// and permanently disabled. Tracers are safe for concurrent use: each
// track accepts concurrent writers, recording takes no lock and makes
// no allocation, and creating a track is the only locked path.
type Tracer struct {
	epoch    time.Time
	capacity int
	layout   atomic.Pointer[layout]
	mu       sync.Mutex   // serializes track creation
	lost     atomic.Int64 // spans recorded on a track the tracer lacks
}

// NewTracer returns a tracer with the pipeline track; every other track
// is created when first asked for.
func NewTracer() *Tracer { return newTracer(trackCapacity) }

func newTracer(capacity int) *Tracer {
	t := &Tracer{epoch: time.Now(), capacity: max(capacity, 1)}
	t.layout.Store(&layout{})
	t.track(0, 0)
	return t
}

// Worker is the track of pool worker (loop participant) i.
func (t *Tracer) Worker(i int) Track { return t.track(kindWorker, i) }

// Rank is the track of fabric rank r.
func (t *Tracer) Rank(r int) Track { return t.track(kindRank, r) }

// Lane is the track of serving-daemon request lane l.
func (t *Tracer) Lane(l int) Track { return t.track(kindLane, l) }

// track returns the track (kind, i), creating its buffer on first use.
func (t *Tracer) track(kind, i int) Track {
	if t == nil || i < 0 || i >= 1<<kindShift {
		return NoTrack
	}
	k := Track(kind<<kindShift | i)
	if t.layout.Load().buffer(k) != nil {
		return k
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.layout.Load()
	if old.buffer(k) != nil {
		return k
	}
	l := *old
	row := make([]*buffer, max(i+1, len(old.byKind[kind])))
	copy(row, old.byKind[kind])
	b := &buffer{track: k, spans: make([]Span, t.capacity)}
	row[i] = b
	l.byKind[kind] = row
	l.all = append(slices.Clip(old.all), b)
	t.layout.Store(&l)
	return k
}

// Now returns the current offset in nanoseconds since the tracer epoch,
// read from the monotonic clock. On a nil tracer it returns 0, so
// instrumented code can call Begin/End unconditionally.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Begin marks the start of a span: it is Now under a name that reads as
// a pair with End at the call site.
func (t *Tracer) Begin() int64 { return t.Now() }

// End records a span on track that started at the offset a matching
// Begin returned. It is the single hot-path recording call: one clock
// read, one atomic add, one slot write; no allocation. On a nil tracer
// it is a no-op.
func (t *Tracer) End(track Track, name string, start int64) {
	if t == nil {
		return
	}
	t.Record(track, name, start, t.Now()-start)
}

// Record inserts a span with an explicit start and duration. A span on
// a track the tracer does not have is counted as dropped; a negative
// duration is clamped to zero.
func (t *Tracer) Record(track Track, name string, start, dur int64) {
	if t == nil {
		return
	}
	b := t.layout.Load().buffer(track)
	if b == nil {
		t.lost.Add(1)
		return
	}
	slot := b.cur.Add(1) - 1
	if slot >= int64(len(b.spans)) {
		return // buffer full: dropped, accounted by Dropped()
	}
	b.spans[slot] = Span{Name: name, Track: track, Start: start, Dur: max(dur, 0)}
	// Publish in order: a reader sees slot i only after every slot <= i
	// is fully written. Writers that finish out of order spin briefly;
	// the window is a single struct assignment.
	for !b.published.CompareAndSwap(slot, slot+1) {
	}
}

// Dropped returns the number of spans the tracer did not keep: those on
// a full track buffer and those on a track it does not have.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	n := t.lost.Load()
	for _, b := range t.layout.Load().all {
		n += max(b.cur.Load()-int64(len(b.spans)), 0)
	}
	return n
}

// Spans returns a snapshot of every recorded span in the canonical
// sortSpans order. The snapshot is a copy; recording may continue
// concurrently.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, b := range t.layout.Load().all {
		out = append(out, b.spans[:b.published.Load()]...)
	}
	sortSpans(out)
	return out
}

// tracks returns every track the tracer has, in order.
func (t *Tracer) tracks() []Track {
	if t == nil {
		return nil
	}
	var out []Track
	for _, b := range t.layout.Load().all {
		out = append(out, b.track)
	}
	slices.Sort(out)
	return out
}

// Mark is a point in a tracer's recording that opens a sweep cell or a
// governed phase: the spans that start after it are that cell's or
// phase's, and Stages summarizes them.
type Mark struct {
	at   int64
	from []int64 // each track's published count, in creation order
}

// Mark returns the current point of the recording.
func (t *Tracer) Mark() Mark {
	if t == nil {
		return Mark{}
	}
	all := t.layout.Load().all
	m := Mark{from: make([]int64, len(all))}
	for i, b := range all {
		m.from[i] = b.published.Load()
	}
	m.at = t.Now()
	return m
}

// Stages summarizes the spans recorded on tracks (on every track when
// none is named) that started between m and now: the stage summary of
// the cell or phase m opened. It reads only what was recorded since m.
// On a nil tracer it returns nil.
func (t *Tracer) Stages(m Mark, tracks ...Track) []StageStat {
	if t == nil {
		return nil
	}
	hi := t.Now()
	var spans []Span
	for i, b := range t.layout.Load().all {
		if len(tracks) > 0 && !slices.Contains(tracks, b.track) {
			continue
		}
		var from int64
		if i < len(m.from) {
			from = m.from[i]
		}
		for _, s := range b.spans[from:b.published.Load()] {
			if s.Start >= m.at && s.Start < hi {
				spans = append(spans, s)
			}
		}
	}
	return Summarize(spans)
}

// sortSpans orders spans by (track, start, longer-first, name): on each
// track a parent precedes its children, the order the summarizer's
// containment sweep and the exporters rely on.
func sortSpans(spans []Span) {
	slices.SortStableFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Track, b.Track), cmp.Compare(a.Start, b.Start),
			cmp.Compare(b.Dur, a.Dur), strings.Compare(a.Name, b.Name))
	})
}
