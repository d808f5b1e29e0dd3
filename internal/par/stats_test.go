package par

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestPoolStatsCounters checks the counter bookkeeping: executed chunks
// across all workers must equal the loop's chunk count, the latency
// histogram must account every chunk, launches count dispatches, and
// steals never exceed tasks.
func TestPoolStatsCounters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Instrument(nil) // counters only

	const n, grain = 1000, 10
	const chunks = n / grain
	const launches = 3
	for i := 0; i < launches; i++ {
		p.For(n, grain, func(lo, hi, worker int) {})
	}
	st := p.Stats()
	if st.Launches != launches {
		t.Errorf("Launches = %d, want %d", st.Launches, launches)
	}
	tot := st.Totals()
	if tot.Tasks != launches*chunks {
		t.Errorf("total tasks = %d, want %d", tot.Tasks, launches*chunks)
	}
	var histo int64
	for _, c := range tot.Latency {
		histo += c
	}
	if histo != tot.Tasks {
		t.Errorf("latency histogram accounts %d chunks, want %d", histo, tot.Tasks)
	}
	if tot.Stolen > tot.Tasks {
		t.Errorf("stolen %d > tasks %d", tot.Stolen, tot.Tasks)
	}
	for w, ws := range st.Workers {
		if ws.Tasks < 0 || ws.Stolen < 0 {
			t.Errorf("worker %d has negative counters: %+v", w, ws)
		}
	}
}

// TestPoolStatsSerialPaths: the single-chunk and one-worker fast paths
// must account their chunks like the parallel path does.
func TestPoolStatsSerialPaths(t *testing.T) {
	p1 := NewPool(1)
	defer p1.Close()
	p1.Instrument(nil)
	p1.For(100, 10, func(lo, hi, worker int) {}) // one-worker chunk loop
	p1.For(5, 10, func(lo, hi, worker int) {})   // single-chunk fast path
	if got := p1.Stats().Totals().Tasks; got != 11 {
		t.Errorf("serial tasks = %d, want 11", got)
	}
	if got := p1.Stats().Launches; got != 2 {
		t.Errorf("serial launches = %d, want 2", got)
	}
}

// TestPoolStatsIdle: a worker parked between loops accumulates idle
// time once instrumentation is attached.
func TestPoolStatsIdle(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Instrument(nil)
	// Instrument starts the workers; let them park, then wake them.
	time.Sleep(20 * time.Millisecond)
	p.For(1000, 1, func(lo, hi, worker int) {})
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Totals().IdleNs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no idle time recorded after a parked wake")
		}
		time.Sleep(5 * time.Millisecond)
		p.For(1000, 1, func(lo, hi, worker int) {})
	}
}

// TestUninstrumentedStatsZero: Stats on a plain pool is all zeros and
// does not enable anything.
func TestUninstrumentedStatsZero(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.For(100, 10, func(lo, hi, worker int) {})
	st := p.Stats()
	if st.Launches != 0 || st.Totals().Tasks != 0 {
		t.Errorf("uninstrumented stats = %+v, want zeros", st)
	}
	if p.Telemetry() != nil {
		t.Error("uninstrumented pool has a tracer")
	}
}

// TestInstrumentedSpans: with a tracer attached, every For dispatch
// records a launch span on the pipeline track and each participant
// records a chunk-batch span on its worker track.
func TestInstrumentedSpans(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	tr := telemetry.New(p.Workers())
	p.Instrument(tr)
	if p.Telemetry() != tr {
		t.Fatal("Telemetry() did not return the attached tracer")
	}

	const launches = 5
	for i := 0; i < launches; i++ {
		p.For(4096, 64, func(lo, hi, worker int) {})
	}
	var forSpans, chunkSpans int
	for _, s := range tr.Spans() {
		switch s.Name {
		case "par.For":
			forSpans++
			if s.Track != telemetry.PipelineTrack {
				t.Errorf("par.For span on track %d, want pipeline", s.Track)
			}
		case "par.chunks":
			chunkSpans++
			if s.Track == telemetry.PipelineTrack {
				t.Error("par.chunks span on the pipeline track")
			}
		}
	}
	if forSpans != launches {
		t.Errorf("recorded %d par.For spans, want %d", forSpans, launches)
	}
	if chunkSpans < launches {
		t.Errorf("recorded %d par.chunks spans, want >= %d (one per participant per loop)", chunkSpans, launches)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d spans", tr.Dropped())
	}
}

// TestSerialPathSpans: the serial fast paths (small loop on a big pool,
// one-worker pool) record their chunk batch on worker track 0, so a
// GOMAXPROCS=1 trace still shows where loop time went.
func TestSerialPathSpans(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	tr := telemetry.New(p.Workers())
	p.Instrument(tr)
	p.For(10, 4, func(lo, hi, worker int) {}) // one-worker chunked path
	p.For(3, 8, func(lo, hi, worker int) {})  // single-chunk path
	var chunkSpans int
	for _, s := range tr.Spans() {
		if s.Name == "par.chunks" {
			chunkSpans++
			if s.Track != int32(telemetry.WorkerTrack(0)) {
				t.Errorf("serial chunk span on track %d, want worker 0", s.Track)
			}
		}
	}
	if chunkSpans != 2 {
		t.Errorf("recorded %d par.chunks spans, want 2 (one per launch)", chunkSpans)
	}
}

// TestStatsConcurrent drives instrumented loops from several goroutines
// while snapshotting Stats — the -race coverage for the counter paths.
func TestStatsConcurrent(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Instrument(telemetry.New(p.Workers()))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p.For(512, 16, func(lo, hi, worker int) {})
				_ = p.Stats()
			}
		}()
	}
	wg.Wait()
	if got := p.Stats().Launches; got != 80 {
		t.Errorf("launches = %d, want 80", got)
	}
}

// TestDisabledPathAllocs pins the telemetry acceptance numbers: the
// single-chunk fast path allocates nothing, and the parallel dispatch
// allocates no more than the BENCH_HISTORY.json pr 1 baseline (3 allocs: task, spans,
// done channel) whether instrumentation is attached or not — recording
// itself is allocation-free.
func TestDisabledPathAllocs(t *testing.T) {
	body := func(lo, hi, worker int) {}

	disabled := NewPool(4)
	defer disabled.Close()
	disabled.For(4096, 1024, body) // warm workers
	if got := testing.AllocsPerRun(100, func() { disabled.For(64, 1024, body) }); got != 0 {
		t.Errorf("disabled serial For: %.0f allocs/op, want 0", got)
	}
	base := testing.AllocsPerRun(100, func() { disabled.For(4096, 1024, body) })
	if base > 3 {
		t.Errorf("disabled parallel For: %.0f allocs/op, want <= 3 (BENCH_HISTORY.json pr 1 baseline)", base)
	}

	enabled := NewPool(4)
	defer enabled.Close()
	enabled.Instrument(telemetry.New(enabled.Workers()))
	enabled.For(4096, 1024, body)
	if got := testing.AllocsPerRun(100, func() { enabled.For(64, 1024, body) }); got != 0 {
		t.Errorf("instrumented serial For: %.0f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { enabled.For(4096, 1024, body) }); got > base {
		t.Errorf("instrumented parallel For: %.0f allocs/op, want <= uninstrumented %.0f", got, base)
	}
}

// TestLatencyBucketMapping pins the histogram bucket edges.
func TestLatencyBucketMapping(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want int
	}{
		{0, 0}, {999, 0}, {1_000, 1}, {9_999, 1}, {10_000, 2},
		{999_999, 3}, {1_000_000, 4}, {2_000_000_000, LatencyBuckets - 1},
	} {
		if got := latencyBucket(tc.ns); got != tc.want {
			t.Errorf("latencyBucket(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// BenchmarkParForDispatchTelemetry measures the instrumented dispatch
// with telemetry ENABLED (counters + spans); compare against
// BenchmarkParForDispatch, which is the disabled path and must match
// the BENCH_HISTORY.json pr 1 numbers.
func BenchmarkParForDispatchTelemetry(b *testing.B) {
	p := NewPool(4)
	defer benchClosePool(p)
	p.Instrument(telemetry.NewWithCapacity(p.Workers(), 1<<10))
	const n = 4 * 1024
	p.For(n, 1024, func(lo, hi, worker int) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			p.Telemetry().Reset() // keep the span buffers from saturating
		}
		p.For(n, 1024, func(lo, hi, worker int) {})
	}
}
