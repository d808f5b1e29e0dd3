// Package telemetry is the execution-tracing and metrics layer of the
// reproduction: hierarchical wall-clock spans recorded around every
// pipeline stage (simulation step, each visualization filter, render,
// composite, rank operations) and around parallel-loop launches, plus
// exporters that turn the recorded spans into a Chrome trace-event JSON
// file (loadable in Perfetto or chrome://tracing) and a plain-text
// self-time summary.
//
// The design goals mirror the instrumentation built into production in
// situ stacks (Ascent/Catalyst-style timing trees): the paper's entire
// methodology is measurement, so the reproduction must be able to say
// where wall-clock time goes inside a sweep cell — not just report
// end-of-run operation aggregates.
//
// Two properties are load-bearing:
//
//   - The disabled path is (nearly) free. A nil *Tracer is a valid,
//     permanently-disabled tracer: Now returns 0 and End returns
//     immediately, so instrumented code carries only a nil check and no
//     allocation. Hot loops (par.Pool dispatch) must bench identically
//     with telemetry off.
//
//   - Recording is lock-free and allocation-free. Each track owns a
//     preallocated span buffer; a slot is claimed with one atomic add, so
//     concurrent writers — pool workers, fabric ranks — never contend on
//     a lock or allocate on the hot path. When a buffer fills, further
//     spans on that track are counted as dropped rather than blocking.
//
// Span nesting is implicit: spans on the same track that contain one
// another in time render (and summarize) as parent/child, exactly as the
// Chrome trace viewer treats overlapping complete events on one thread
// track. Track 0 is by convention the pipeline track (the goroutine
// driving the in situ loop); tracks 1..N are pool workers or fabric
// ranks.
package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one recorded interval: a name, the track it belongs to, and
// its start offset and duration in nanoseconds since the tracer's epoch.
// Parent/child structure is implied by containment on a track.
type Span struct {
	Name  string
	Track int32
	Start int64 // ns since the tracer epoch
	Dur   int64 // ns
}

// End returns the span's end offset in nanoseconds since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// PipelineTrack is the track index of the goroutine driving the in situ
// pipeline; stage spans (simulate, export, each filter) land here.
const PipelineTrack = 0

// WorkerTrack maps a pool worker (or fabric rank) index to its track.
func WorkerTrack(w int) int { return w + 1 }

// DefaultTrackCapacity is the per-track span buffer size used by New.
// At one launch span per pool dispatch and a handful of stage spans per
// cycle, 1<<15 spans absorb thousands of in situ cycles before dropping.
const DefaultTrackCapacity = 1 << 15

// track is one lock-free span buffer. Writers reserve a slot with an
// atomic add; a reservation past capacity is counted as dropped. The
// published counter trails the cursor so readers never observe a
// half-written slot.
type track struct {
	buf       []Span
	cur       atomic.Int64 // reservation cursor (may exceed len(buf))
	published atomic.Int64 // slots fully written and safe to read
	name      string
}

// Tracer records spans on a fixed set of tracks. A nil Tracer is valid
// and permanently disabled. Tracers are safe for concurrent use; each
// individual track accepts concurrent writers.
type Tracer struct {
	epoch  time.Time
	tracks []*track
}

// New returns a tracer with one pipeline track plus one track per
// worker, each with DefaultTrackCapacity span slots.
func New(workers int) *Tracer {
	return NewWithCapacity(workers, DefaultTrackCapacity)
}

// NewWithCapacity is New with an explicit per-track buffer capacity.
func NewWithCapacity(workers, capacity int) *Tracer {
	if workers < 0 {
		workers = 0
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{epoch: time.Now(), tracks: make([]*track, workers+1)}
	t.tracks[0] = &track{buf: make([]Span, capacity), name: "pipeline"}
	for w := 0; w < workers; w++ {
		t.tracks[w+1] = &track{buf: make([]Span, capacity), name: fmt.Sprintf("worker %d", w)}
	}
	return t
}

// LaneTrack maps a serving-daemon request lane to its track index, in a
// tracer built by NewServing(workers, lanes): lanes sit after the
// pipeline track and the workers' tracks, so pool chunk spans and
// per-request spans coexist in one trace.
func LaneTrack(workers, lane int) int { return workers + 1 + lane }

// NewServing returns a tracer laid out for the serving daemon: the
// pipeline track, one track per pool worker, and `lanes` request lanes
// (named "request lane N") on which per-request spans
// (admit/wait/build/render/encode) are recorded. Each in-flight request
// leases one lane, so containment-on-a-track keeps a request's spans
// nested under its own request span.
func NewServing(workers, lanes int) *Tracer {
	if lanes < 0 {
		lanes = 0
	}
	t := New(workers + lanes)
	for l := 0; l < lanes; l++ {
		t.SetTrackName(LaneTrack(workers, l), fmt.Sprintf("request lane %d", l))
	}
	return t
}

// SetTrackName renames a track for the exporters (e.g. "rank 3").
func (t *Tracer) SetTrackName(track int, name string) {
	if t == nil || track < 0 || track >= len(t.tracks) {
		return
	}
	t.tracks[track].name = name
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
func (t *Tracer) End(track int, name string, start int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.Record(track, name, start, now-start)
}

// Record inserts a span with an explicit start and duration. Exporters
// and tests use it to build synthetic traces; instrumented code should
// prefer Begin/End. Spans on unknown tracks are dropped silently; a
// negative duration is clamped to zero.
func (t *Tracer) Record(track int, name string, start, dur int64) {
	if t == nil || track < 0 || track >= len(t.tracks) {
		return
	}
	if dur < 0 {
		dur = 0
	}
	tr := t.tracks[track]
	slot := tr.cur.Add(1) - 1
	if slot >= int64(len(tr.buf)) {
		return // buffer full: dropped, accounted by Dropped()
	}
	tr.buf[slot] = Span{Name: name, Track: int32(track), Start: start, Dur: dur}
	// Publish in order: a reader sees slot i only after every slot <= i
	// is fully written. Writers that finish out of order spin briefly;
	// the window is a single struct assignment.
	for !tr.published.CompareAndSwap(slot, slot+1) {
	}
}

// Dropped returns the number of spans discarded because a track buffer
// was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, tr := range t.tracks {
		if over := tr.cur.Load() - int64(len(tr.buf)); over > 0 {
			n += over
		}
	}
	return n
}

// Len returns the number of spans currently recorded across all tracks.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	var n int64
	for _, tr := range t.tracks {
		n += tr.published.Load()
	}
	return int(n)
}

// Spans returns a snapshot of every recorded span, sorted by (track,
// start, longer-first): on each track a parent always precedes its
// children, which is the order the summarizer's containment sweep and
// the exporters rely on. The snapshot is a copy; recording may continue
// concurrently.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, tr := range t.tracks {
		n := tr.published.Load()
		out = append(out, tr.buf[:n]...)
	}
	SortSpans(out)
	return out
}

// Reset discards all recorded spans (the epoch is preserved, so offsets
// from before and after a Reset remain comparable).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for _, tr := range t.tracks {
		tr.published.Store(0)
		tr.cur.Store(0)
	}
}

// SortSpans orders spans by (track, start, longer-first, name) — the
// canonical parent-before-child order used throughout the package.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.Name < b.Name
	})
}
