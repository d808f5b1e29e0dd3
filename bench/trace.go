package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: times are
// nanoseconds since the recorder started, Parent is the index of the span
// that caused it (-1 for a root) and Op groups the spans of one operation.
type span struct {
	Name       string
	Start, End int64
	Parent, Op int
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the same workload code
// serves both.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// len is the number of spans recorded so far.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// do times fn (always) and records it as a span (when tracing).
func (r *recorder) do(name string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		if d := s.End - s.Start - covered[i]; d > 0 {
			self[s.Name] += time.Duration(d)
		}
	}
	return self
}

// coverage is the share of the named spans' time their children account
// for: 1 − self/total.
func (r *recorder) coverage(name string) float64 {
	if r == nil {
		return 0
	}
	self := r.selfTimes()[name]
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, s := range r.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}

// writeChrome writes the spans as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing). Each root span takes the lowest track
// free at its start and its descendants follow it, so the spans of
// concurrent clients do not overlap on one track.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	track := make([]int, len(spans))
	var busyUntil []int64
	for i, s := range spans { // begin order, so a parent precedes its children
		if s.Parent >= 0 {
			track[i] = track[s.Parent]
			continue
		}
		t := 0
		for t < len(busyUntil) && busyUntil[t] > s.Start {
			t++
		}
		if t == len(busyUntil) {
			busyUntil = append(busyUntil, 0)
		}
		busyUntil[t] = s.End
		track[i] = t
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: track[i], Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
