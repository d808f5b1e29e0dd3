package par

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// LatencyBuckets is the number of fixed chunk-latency histogram buckets.
// Bucket i counts chunks whose body took < LatencyBoundsNs[i]; the last
// bucket is unbounded.
const LatencyBuckets = 8

// LatencyBoundsNs are the upper bounds (exclusive, in nanoseconds) of
// the first LatencyBuckets-1 histogram buckets: 1 µs to 1 s in decades.
var LatencyBoundsNs = [LatencyBuckets - 1]int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// latencyBucket maps a chunk duration to its histogram bucket.
func latencyBucket(ns int64) int {
	for i, b := range LatencyBoundsNs {
		if ns < b {
			return i
		}
	}
	return LatencyBuckets - 1
}

// workerCounters is one worker slot's metrics, padded so neighboring
// slots never share a cache line under concurrent atomic updates.
type workerCounters struct {
	tasks  atomic.Int64 // chunks executed (own span + stolen)
	stolen atomic.Int64 // chunks claimed from another participant's span
	idleNs atomic.Int64 // time a parked worker goroutine spent waiting
	lat    [LatencyBuckets]atomic.Int64
	_      [40]byte
}

// instrumentation is the optional telemetry state of a pool: the span
// tracer (may be nil for counters-only) and the per-worker counters.
// A nil *instrumentation is the uninstrumented fast path — For loads
// the pointer once per dispatch and touches nothing else.
type instrumentation struct {
	tracer   *telemetry.Tracer
	workers  []workerCounters
	launches atomic.Int64
}

// observe records one executed chunk for participant w.
func (in *instrumentation) observe(w int, ns int64) {
	c := &in.workers[w]
	c.tasks.Add(1)
	c.lat[latencyBucket(ns)].Add(1)
}

// Instrument attaches execution telemetry to the pool: per-worker task,
// steal, idle, and chunk-latency counters (exposed by Stats) and, when
// tr is non-nil, spans on tr — one "par.For" span per loop launch on
// the pipeline track and one "par.chunks" span per participant per loop
// on that worker's track. tr should have at least Workers() worker
// tracks (telemetry.New(p.Workers())).
//
// Instrument may be called at most once per pool, before profiled work
// is dispatched; an uninstrumented pool pays only a single atomic
// pointer load per For.
func (p *Pool) Instrument(tr *telemetry.Tracer) {
	in := &instrumentation{tracer: tr, workers: make([]workerCounters, p.workers)}
	p.instr.Store(in)
	// Workers read the pointer from the shared state so a finalized Pool
	// does not pin them; start them now so idle tracking begins.
	p.ensure().instr.Store(in)
}

// WorkerStats is one worker slot's counter snapshot. Tasks, Stolen, and
// Latency are indexed by loop-participant slot (the worker argument a
// body receives); IdleNs is indexed by pool worker goroutine. Both
// spaces are [0, Workers()).
type WorkerStats struct {
	Tasks   int64
	Stolen  int64
	IdleNs  int64
	Latency [LatencyBuckets]int64
}

// PoolStats is a Stats snapshot: loop launches, the instantaneous
// dispatch-queue depth, and per-worker counters.
type PoolStats struct {
	Launches int64
	// ActiveLoops is the number of loops on the shared dispatch queue at
	// snapshot time (see Pool.ActiveLoops); unlike the counters it is
	// populated on uninstrumented pools too.
	ActiveLoops int
	Workers     []WorkerStats
}

// Totals sums the per-worker counters.
func (s PoolStats) Totals() WorkerStats {
	var t WorkerStats
	for _, w := range s.Workers {
		t.Tasks += w.Tasks
		t.Stolen += w.Stolen
		t.IdleNs += w.IdleNs
		for i, c := range w.Latency {
			t.Latency[i] += c
		}
	}
	return t
}

// Stats returns a snapshot of the pool's counters. On an uninstrumented
// pool every field is zero. Safe to call while loops run; the snapshot
// is internally consistent per counter, not across counters.
func (p *Pool) Stats() PoolStats {
	in := p.instr.Load()
	if in == nil {
		return PoolStats{ActiveLoops: p.ActiveLoops(), Workers: make([]WorkerStats, p.workers)}
	}
	out := PoolStats{
		Launches:    in.launches.Load(),
		ActiveLoops: p.ActiveLoops(),
		Workers:     make([]WorkerStats, len(in.workers)),
	}
	for w := range in.workers {
		c := &in.workers[w]
		ws := &out.Workers[w]
		ws.Tasks = c.tasks.Load()
		ws.Stolen = c.stolen.Load()
		ws.IdleNs = c.idleNs.Load()
		for i := range c.lat {
			ws.Latency[i] = c.lat[i].Load()
		}
	}
	return out
}

// timedCall runs one chunk body under the latency clock.
func (t *loopTask) timedCall(lo, hi, w int) {
	t0 := time.Now()
	t.call(lo, hi, w)
	t.in.observe(w, int64(time.Since(t0)))
}

// execSerial runs one chunk on the calling goroutine as participant 0 —
// the For fast path for loops that fit in a single chunk and for
// one-worker pools. Instrumentation, when attached, accounts the chunk
// exactly as the parallel path does; panics propagate unwrapped, which
// is the historical serial-path behavior.
func execSerial(lo, hi int, body func(lo, hi, worker int), in *instrumentation) {
	if in == nil {
		body(lo, hi, 0)
		return
	}
	t0 := time.Now()
	body(lo, hi, 0)
	in.observe(0, int64(time.Since(t0)))
}
