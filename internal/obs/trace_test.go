package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsDisabled: every method on a nil tracer must be a safe
// no-op — that is the disabled fast path instrumented code relies on.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if got := tr.Now(); got != 0 {
		t.Errorf("nil Now() = %d, want 0", got)
	}
	s := tr.Begin()
	tr.End(Pipeline, "x", s)
	tr.Record(tr.Worker(0), "x", 0, 1)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Rank(1) != NoTrack {
		t.Error("nil tracer recorded something")
	}
	if spans := tr.Spans(); spans != nil {
		t.Errorf("nil Spans() = %v, want nil", spans)
	}
	if st := tr.Stages(tr.Mark()); st != nil {
		t.Errorf("nil Stages() = %v, want nil", st)
	}
	tr.Reset()
}

// TestSpanNestingInvariants records a begin/end pair nest and checks
// the canonical ordering: on one track, sorted output puts the parent
// (earlier start, longer duration) before its children, children are
// contained in their parent, and siblings do not overlap.
func TestSpanNestingInvariants(t *testing.T) {
	tr := NewTracer()
	outer := tr.Begin()
	for i := 0; i < 3; i++ {
		inner := tr.Begin()
		time.Sleep(time.Millisecond)
		tr.End(Pipeline, "child", inner)
	}
	tr.End(Pipeline, "parent", outer)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "parent" {
		t.Fatalf("first span %q, want parent (parent-before-child order)", spans[0].Name)
	}
	p := spans[0]
	var prevEnd int64
	for _, c := range spans[1:] {
		if c.Name != "child" {
			t.Fatalf("unexpected span %q", c.Name)
		}
		if c.Start < p.Start || c.End() > p.End() {
			t.Errorf("child [%d,%d) not contained in parent [%d,%d)", c.Start, c.End(), p.Start, p.End())
		}
		if c.Start < prevEnd {
			t.Errorf("sibling children overlap: start %d < previous end %d", c.Start, prevEnd)
		}
		prevEnd = c.End()
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d spans", tr.Dropped())
	}
}

// TestConcurrentRecording hammers one tracer from many goroutines —
// both a private track per goroutine (the pool-worker pattern) and a
// single shared track — and checks nothing is lost or torn. Run under
// -race by the Makefile race target.
func TestConcurrentRecording(t *testing.T) {
	const workers = 8
	const perWorker = 500
	tr := newTracer(workers*perWorker + 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := tr.Begin()
				tr.End(tr.Worker(w), "own", s)
				tr.Record(Pipeline, "shared", int64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped())
	}
	spans := tr.Spans()
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Name == "" {
			t.Fatal("torn span with empty name")
		}
	}
	if counts["own"] != workers*perWorker || counts["shared"] != workers*perWorker {
		t.Errorf("counts = %v, want %d each", counts, workers*perWorker)
	}
}

// TestDroppedAccounting fills a tiny track and checks overflow is
// counted, not blocking or corrupting.
func TestDroppedAccounting(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Pipeline, "s", int64(i), 1)
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("Reset did not clear the track")
	}
	tr.Record(Pipeline, "t", 0, 1)
	if tr.Len() != 1 {
		t.Error("track unusable after Reset")
	}
}

// TestRecordBounds: spans on tracks the tracer does not have are counted
// as dropped, and negative durations do not corrupt the buffers.
func TestRecordBounds(t *testing.T) {
	tr := NewTracer()
	tr.Record(NoTrack, "x", 0, 1)
	tr.Record(99, "x", 0, 1)
	tr.Record(Pipeline, "neg", 10, -5)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Dur != 0 {
		t.Errorf("spans = %v, want one zero-dur span", spans)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want the 2 spans on unknown tracks", got)
	}
}

// TestNamedTracks: the tracer lays out the tracks callers name. The
// same name is the same track, kinds never share a track, and tracks
// order pipeline, workers, ranks, lanes whatever order they were asked
// for in.
func TestNamedTracks(t *testing.T) {
	tr := NewTracer()
	lane, rank, worker := tr.Lane(1), tr.Rank(1), tr.Worker(1)
	if tr.Lane(1) != lane || tr.Rank(1) != rank || tr.Worker(1) != worker {
		t.Error("asking for a track twice gave two tracks")
	}
	want := []Track{Pipeline, tr.Worker(0), worker, tr.Rank(0), rank, tr.Lane(0), lane}
	if got := tr.tracks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tracks = %v, want %v", got, want)
	}
	names := []string{"pipeline", "worker 0", "worker 1", "rank 0", "rank 1", "request lane 0", "request lane 1"}
	for i, k := range want {
		if k.String() != names[i] {
			t.Errorf("track %d named %q, want %q", i, k, names[i])
		}
	}
	tr.End(rank, "dist.send", tr.Begin())
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Track != rank {
		t.Fatalf("spans = %+v, want one on %v", spans, rank)
	}
	if tr.Worker(-1) != NoTrack {
		t.Error("a negative worker got a track")
	}
}

// TestSummarizeSelfTime checks the containment sweep: a parent's self
// time excludes its children, across tracks independently.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "parent", Track: 0, Start: 0, Dur: 100},
		{Name: "child", Track: 0, Start: 10, Dur: 30},
		{Name: "child", Track: 0, Start: 50, Dur: 20},
		{Name: "grandchild", Track: 0, Start: 12, Dur: 5},
		// Same shape on another track must not bleed into track 0.
		{Name: "parent", Track: 1, Start: 0, Dur: 40},
	}
	stats := Summarize(spans)
	got := map[string]StageStat{}
	for _, st := range stats {
		got[st.Name] = st
	}
	if st := got["parent"]; st.SelfNs != (100-30-20)+40 || st.TotalNs != 140 || st.Count != 2 {
		t.Errorf("parent = %+v, want self 90 total 140 count 2", st)
	}
	if st := got["child"]; st.SelfNs != (30-5)+20 || st.TotalNs != 50 || st.MaxNs != 30 {
		t.Errorf("child = %+v, want self 45 total 50 max 30", st)
	}
	if st := got["grandchild"]; st.SelfNs != 5 {
		t.Errorf("grandchild = %+v, want self 5", st)
	}
	// Ranked by self time descending.
	if stats[0].Name != "parent" {
		t.Errorf("first stage %q, want parent", stats[0].Name)
	}
}

// TestStagesSinceMark: a mark's stage summary holds the spans that
// started after it, on the tracks asked for, including tracks created
// after the mark — not what came before, nor a parent opened earlier.
func TestStagesSinceMark(t *testing.T) {
	tr := NewTracer()
	tr.Record(Pipeline, "before", 0, 1)
	outer := tr.Begin()
	m := tr.Mark()
	cell := tr.Begin()
	tr.End(Pipeline, "cell", cell)
	tr.End(tr.Worker(0), "par.chunks", tr.Begin())
	tr.End(Pipeline, "outer", outer)

	counts := func(stats []StageStat) map[string]int64 {
		out := map[string]int64{}
		for _, st := range stats {
			out[st.Name] = st.Count
		}
		return out
	}
	if got := counts(tr.Stages(m)); !reflect.DeepEqual(got, map[string]int64{"cell": 1, "par.chunks": 1}) {
		t.Errorf("Stages(m) = %v, want cell and par.chunks", got)
	}
	if got := counts(tr.Stages(m, Pipeline)); !reflect.DeepEqual(got, map[string]int64{"cell": 1}) {
		t.Errorf("Stages(m, Pipeline) = %v, want cell only", got)
	}
}

// TestWriteSummaryRenders smoke-tests the text renderer: every stage
// name appears and the wall-percent column shows up when wall is given.
func TestWriteSummaryRenders(t *testing.T) {
	spans := []Span{
		{Name: "simulate", Track: 0, Start: 0, Dur: 3_000_000},
		{Name: "Contour", Track: 0, Start: 3_000_000, Dur: 1_500_000},
	}
	var b strings.Builder
	if err := WriteSummary(&b, spans, 2, 4_500_000); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"simulate", "Contour", "% wall", "top 2 spans", "66.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
