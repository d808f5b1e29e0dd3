// Package par is the shared-memory parallel runtime used by every
// visualization and simulation kernel in this repository. It plays the role
// that Intel TBB plays for VTK-m in the paper: a persistent pool of workers
// executing chunked parallel-for loops with dynamic load balancing.
//
// Workers are started once per Pool and parked between loops; a For or
// Reduce dispatch wakes them with a channel token instead of spawning
// goroutines, so the per-launch cost is a queue append and at most one
// wakeup. The index range of a loop is pre-split into per-worker spans of
// chunks: each participant claims chunks from the front of its own span and,
// when that runs dry, steals chunks from the back of other spans, so
// irregular work (cells that produce geometry vs. cells that do not) still
// balances while the common case stays contention-free.
//
// The goroutine that calls For always participates in its own loop. That
// property is load-bearing: a loop can complete on the dispatching
// goroutine alone, so a nested For issued from inside a worker body — or a
// For issued while every worker is busy — degrades to serial execution on
// the caller instead of deadlocking on a bounded pool.
//
// Kernels receive the index of the worker executing each chunk so they can
// use per-worker scratch space without any synchronization on the hot
// path. The pool also owns a scratch store
// (GetScratch/PutScratch) from which kernels lease small working state
// whose size does not scale with the data — dpp block partials and loop
// bodies, hydro row buffers — across launches; Close, or the garbage
// collector once the pool is unreachable, gives it back.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool is a fixed set of persistent workers that execute parallel loops.
// A Pool is safe for use from multiple goroutines; concurrent and nested
// For calls are serviced by the same workers without deadlock.
type Pool struct {
	workers int
	once    sync.Once
	state   *poolState

	// instr is the optional telemetry attachment (see Instrument). nil
	// means uninstrumented: the dispatch path pays one atomic load.
	instr atomic.Pointer[instrumentation]

	scratchMu     sync.Mutex
	scratch       map[any][]any
	scratchClosed bool // set by Close: PutScratch drops what it is handed
}

// NewPool returns a pool with n workers. n <= 0 selects GOMAXPROCS. The
// worker goroutines are started lazily on the first parallel dispatch;
// Close stops them and empties the scratch store. A pool that is dropped
// without Close is reclaimed by a finalizer, which Go runs only for an
// object no reference cycle passes through: nothing the pool holds — a
// value parked in its scratch store above all — may point back at the
// pool, or the workers and the scratch leak for the life of the process.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// Default returns the shared machine-sized pool (GOMAXPROCS workers). The
// pool is created once and persists for the life of the process, so
// repeated Default calls reuse the same warm workers.
func Default() *Pool { return defaultPool() }

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

// MaxGrain caps the chunk size GrainFor selects, so per-chunk state
// (point windows, recorder flushes) stays bounded and irregular cells
// can still balance across workers.
const MaxGrain = 8192

// grainChunksPerWorker is the load-balancing target: enough chunks per
// worker that one expensive region does not serialize the loop, few
// enough that claim traffic stays negligible.
const grainChunksPerWorker = 8

// GrainFor returns the chunk size used for an n-iteration element loop on
// a pool with the given worker count: about eight chunks per worker,
// capped at MaxGrain. For and Reduce apply it automatically when called
// with grain <= 0; kernels with per-chunk setup cost may also call it
// directly.
func GrainFor(n, workers int) int {
	if n <= 0 {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	g := n / (workers * grainChunksPerWorker)
	if g < 1 {
		g = 1
	}
	if g > MaxGrain {
		g = MaxGrain
	}
	return g
}

// grainFixedChunks is GrainFixed's chunk-count target: parallel slack for
// the worker counts the study sweeps (1–32), independent of the pool.
const grainFixedChunks = 64

// GrainFixed returns a chunk size that depends only on n, never on the
// pool. Kernels whose output or price depends on chunk boundaries (the
// per-chunk soup threshold, clip and isovolume price) use it so their
// output meshes and operation profiles are bit-identical across worker
// counts — the property that lets the study compare a kernel's profile
// across core-count configurations. For preserves the boundaries on
// one-worker pools by iterating the same chunks serially.
func GrainFixed(n int) int {
	if n <= 0 {
		return 1
	}
	g := n / grainFixedChunks
	if g < 1 {
		g = 1
	}
	if g > MaxGrain {
		g = MaxGrain
	}
	return g
}

// WorkerPanic is the value For re-panics with when a loop body panics: it
// wraps the original panic value with the index of the worker that raised
// it, so callers that recover can still inspect the cause.
type WorkerPanic struct {
	Worker int
	Value  any
}

// Error implements error.
func (wp *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker %d panicked: %v", wp.Worker, wp.Value)
}

func (wp *WorkerPanic) String() string { return wp.Error() }

// Unwrap exposes the original panic value when it was an error.
func (wp *WorkerPanic) Unwrap() error {
	if err, ok := wp.Value.(error); ok {
		return err
	}
	return nil
}

// poolState is the part of a pool shared with its worker goroutines. It
// deliberately does not reference the Pool itself, so an unreachable Pool
// can be finalized (shutting the workers down) while they are parked.
type poolState struct {
	mu     sync.Mutex
	active []*loopTask
	wake   chan struct{}
	quit   chan struct{}
	closed atomic.Bool

	// instr mirrors Pool.instr so parked workers can track idle time
	// without referencing (and pinning) the Pool itself.
	instr atomic.Pointer[instrumentation]
}

// ensure starts the worker goroutines on first use.
func (p *Pool) ensure() *poolState {
	p.once.Do(func() {
		s := &poolState{
			wake: make(chan struct{}, p.workers),
			quit: make(chan struct{}),
		}
		for w := 0; w < p.workers; w++ {
			go s.worker(w)
		}
		p.state = s
		runtime.SetFinalizer(p, func(pp *Pool) { pp.state.shutdown() })
	})
	return p.state
}

// Close releases the pool's parked workers and everything parked in its
// scratch store. It is optional (an unreachable pool is reclaimed by a
// finalizer, see NewPool) and idempotent. Loops dispatched after Close
// still complete — they run on the calling goroutine — and the store stays
// empty: GetScratch returns nil and PutScratch drops its argument.
func (p *Pool) Close() {
	s := p.ensure()
	s.shutdown()
	p.scratchMu.Lock()
	p.scratch, p.scratchClosed = nil, true
	p.scratchMu.Unlock()
}

func (s *poolState) shutdown() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.quit)
	}
}

// tryWake hands one parked worker a token. If a token is already pending,
// the worker it wakes will rescan the queue and find the new loop, so no
// additional token is needed — this collapses redundant wakeups when
// loops are dispatched faster than workers drain them.
func (s *poolState) tryWake() {
	if len(s.wake) == 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// worker is the body of one persistent worker goroutine: park on the wake
// channel, then service queued loops until none have work left. With
// instrumentation attached, the time spent parked is accumulated as the
// worker's idle nanoseconds.
func (s *poolState) worker(w int) {
	for {
		var parked time.Time
		if s.instr.Load() != nil {
			parked = time.Now()
		}
		select {
		case <-s.wake:
			if in := s.instr.Load(); in != nil && !parked.IsZero() && w < len(in.workers) {
				in.workers[w].idleNs.Add(int64(time.Since(parked)))
			}
		case <-s.quit:
			return
		}
		for {
			t := s.pick()
			if t == nil {
				break
			}
			if id := int(t.arrivals.Add(1)) - 1; id < len(t.spans) {
				// Recruit the next helper before starting to work, so
				// recruitment proceeds while chunks execute.
				if id+1 < len(t.spans) {
					s.tryWake()
				}
				t.run(id)
			}
		}
	}
}

// ActiveLoops returns the number of parallel loops currently queued or
// executing on the pool's shared queue — the instantaneous dispatch
// depth an admission layer reads to observe pool pressure. Loops small
// enough to run inline on their caller never enter the queue and are
// not counted. Works on uninstrumented pools.
func (p *Pool) ActiveLoops() int {
	s := p.ensure()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// pick returns a queued loop that can still use another participant.
func (s *poolState) pick() *loopTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.active {
		if t.arrivals.Load() < int32(len(t.spans)) && t.hasWork() {
			return t
		}
	}
	return nil
}

func (s *poolState) remove(t *loopTask) {
	s.mu.Lock()
	for i, x := range s.active {
		if x == t {
			// Clear the vacated slot: a finished loop left in the backing
			// array pins its body, and everything the body captured, until
			// another loop overwrites it.
			last := len(s.active) - 1
			copy(s.active[i:], s.active[i+1:])
			s.active[last] = nil
			s.active = s.active[:last]
			break
		}
	}
	s.mu.Unlock()
}

// span is one worker's share of a loop's chunk index space. The packed
// bounds word holds hi<<32|lo; the owner claims chunks from lo upward and
// thieves claim from hi downward, so owner traffic and steal traffic meet
// in the middle without a shared counter. Padded to a cache line.
type span struct {
	bounds atomic.Uint64
	_      [56]byte
}

func (sp *span) takeFront() (int, bool) {
	for {
		b := sp.bounds.Load()
		lo, hi := uint32(b), uint32(b>>32)
		if lo >= hi {
			return 0, false
		}
		if sp.bounds.CompareAndSwap(b, uint64(hi)<<32|uint64(lo+1)) {
			return int(lo), true
		}
	}
}

func (sp *span) takeBack() (int, bool) {
	for {
		b := sp.bounds.Load()
		lo, hi := uint32(b), uint32(b>>32)
		if lo >= hi {
			return 0, false
		}
		if sp.bounds.CompareAndSwap(b, uint64(hi-1)<<32|uint64(lo)) {
			return int(hi - 1), true
		}
	}
}

// loopTask is one dispatched parallel loop.
type loopTask struct {
	s         *poolState
	body      func(lo, hi, worker int)
	n, grain  int
	spans     []span
	arrivals  atomic.Int32
	remaining atomic.Int64
	panicVal  atomic.Pointer[WorkerPanic]
	aborted   atomic.Bool
	done      chan struct{}
	// in is the instrumentation captured at dispatch; nil on the
	// uninstrumented fast path.
	in *instrumentation
}

func (t *loopTask) hasWork() bool {
	for i := range t.spans {
		b := t.spans[i].bounds.Load()
		if uint32(b) < uint32(b>>32) {
			return true
		}
	}
	return false
}

// run participates in the loop as worker w: drain the front of the own
// span, then steal from the back of the others. Completed iterations are
// counted locally and retired with a single atomic add when the
// participant runs out of work, so the shared completion counter is
// touched once per participant, not once per chunk.
func (t *loopTask) run(w int) {
	in := t.in
	var spanStart int64
	if in != nil && in.tracer != nil {
		spanStart = in.tracer.Begin()
	}
	own := w % len(t.spans)
	var iters, stolen int64
	for {
		c, ok := t.spans[own].takeFront()
		if !ok {
			break
		}
		iters += t.exec(c, w)
	}
	for off := 1; off < len(t.spans); off++ {
		sp := &t.spans[(own+off)%len(t.spans)]
		for {
			c, ok := sp.takeBack()
			if !ok {
				break
			}
			stolen++
			iters += t.exec(c, w)
		}
	}
	if in != nil {
		if stolen != 0 {
			in.workers[w].stolen.Add(stolen)
		}
		if in.tracer != nil {
			in.tracer.End(in.tracer.Worker(w), "par.chunks", spanStart)
		}
	}
	if iters != 0 && t.remaining.Add(-iters) == 0 {
		t.s.remove(t)
		close(t.done)
	}
}

func (t *loopTask) exec(c, w int) int64 {
	lo := c * t.grain
	hi := lo + t.grain
	if hi > t.n {
		hi = t.n
	}
	if !t.aborted.Load() {
		if t.in != nil {
			t.timedCall(lo, hi, w)
		} else {
			t.call(lo, hi, w)
		}
	}
	return int64(hi - lo)
}

func (t *loopTask) call(lo, hi, w int) {
	defer func() {
		if r := recover(); r != nil {
			t.panicVal.CompareAndSwap(nil, &WorkerPanic{Worker: w, Value: r})
			t.aborted.Store(true)
		}
	}()
	t.body(lo, hi, w)
}

// For executes body over the index range [0, n) split into chunks of at
// most grain iterations (grain <= 0 selects GrainFor(n, Workers())).
// Chunks are pre-split into per-worker spans and claimed with work
// stealing, so irregular work balances across workers. body receives the
// chunk bounds [lo, hi) and the worker index in [0, Workers()); lo is
// always a multiple of the grain, and worker indices are unique among the
// participants of one loop.
//
// For blocks until all iterations complete. If any invocation of body
// panics, remaining chunks are abandoned and For re-panics with a
// *WorkerPanic carrying the first original panic value. The calling
// goroutine participates in the loop, so nested or concurrent For calls
// on a saturated pool fall back to serial execution on the caller rather
// than deadlocking.
func (p *Pool) For(n, grain int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	in := p.instr.Load()
	if in == nil {
		p.forLoop(n, grain, body, nil)
		return
	}
	in.launches.Add(1)
	start := in.tracer.Begin()
	p.forLoop(n, grain, body, in)
	// The launch span lands on the pipeline track: For blocks its caller,
	// so on the instrumented in situ path the span nests inside the
	// enclosing stage span recorded by the same goroutine.
	in.tracer.End(obs.Pipeline, "par.For", start)
}

// forLoop is the loop engine behind For; in is non-nil only on
// instrumented pools.
func (p *Pool) forLoop(n, grain int, body func(lo, hi, worker int), in *instrumentation) {
	if grain <= 0 {
		grain = GrainFor(n, p.workers)
	}
	if n <= grain {
		// The caller executes as participant 0, so the chunk span lands on
		// worker track 0 — the same attribution the counters use.
		var start int64
		if in != nil {
			start = in.tracer.Begin()
		}
		execSerial(0, n, body, in)
		if in != nil {
			in.tracer.End(in.tracer.Worker(0), "par.chunks", start)
		}
		return
	}
	if p.workers == 1 {
		// Serial pools execute the same chunk sequence a parallel pool
		// would, so chunk-boundary-sensitive kernels produce identical
		// output at every worker count.
		var start int64
		if in != nil {
			start = in.tracer.Begin()
		}
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			execSerial(lo, hi, body, in)
		}
		if in != nil {
			in.tracer.End(in.tracer.Worker(0), "par.chunks", start)
		}
		return
	}
	chunks := (n + grain - 1) / grain
	for chunks >= 1<<31 { // keep chunk indices in 31 bits for the packed spans
		grain *= 2
		chunks = (n + grain - 1) / grain
	}
	s := p.ensure()
	t := &loopTask{s: s, body: body, n: n, grain: grain, done: make(chan struct{}), in: in}
	t.remaining.Store(int64(n))
	ns := p.workers
	if chunks < ns {
		ns = chunks
	}
	t.spans = make([]span, ns)
	base := 0
	for i := 0; i < ns; i++ {
		cnt := chunks / ns
		if i < chunks%ns {
			cnt++
		}
		t.spans[i].bounds.Store(uint64(base+cnt)<<32 | uint64(base))
		base += cnt
	}
	s.mu.Lock()
	s.active = append(s.active, t)
	s.mu.Unlock()
	s.tryWake()
	if id := int(t.arrivals.Add(1)) - 1; id < len(t.spans) {
		t.run(id)
	}
	<-t.done
	if wp := t.panicVal.Load(); wp != nil {
		panic(wp)
	}
}

// ForEach is For with a per-index body; convenient for coarse-grained work
// such as rendering one image per iteration.
func (p *Pool) ForEach(n int, body func(i, worker int)) {
	p.For(n, 1, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			body(i, worker)
		}
	})
}

// Reduce computes a parallel reduction over [0, n). The range is split
// into one span of grain-sized chunks per participant slot; each span is
// folded serially in index order into a private accumulator seeded by
// zero(), and the span accumulators are combined with merge in span
// order. Because the span partition depends only on (n, grain, Workers())
// and the merge order is fixed, the result is deterministic for a given
// pool size regardless of how spans are scheduled — floating-point
// reductions reproduce bit-for-bit across runs.
func Reduce[T any](p *Pool, n, grain int, zero func() T, fold func(lo, hi int, acc T) T, merge func(a, b T) T) T {
	if n <= 0 {
		return zero()
	}
	if grain <= 0 {
		grain = GrainFor(n, p.workers)
	}
	chunks := (n + grain - 1) / grain
	ns := p.workers
	if chunks < ns {
		ns = chunks
	}
	foldSpan := func(c0, c1 int) T {
		acc := zero()
		for c := c0; c < c1; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			acc = fold(lo, hi, acc)
		}
		return acc
	}
	if ns == 1 {
		return merge(zero(), foldSpan(0, chunks))
	}
	bounds := make([]int, ns+1)
	base := 0
	for i := 0; i < ns; i++ {
		bounds[i] = base
		cnt := chunks / ns
		if i < chunks%ns {
			cnt++
		}
		base += cnt
	}
	bounds[ns] = base
	accs := make([]T, ns)
	p.For(ns, 1, func(lo, hi, worker int) {
		for sp := lo; sp < hi; sp++ {
			accs[sp] = foldSpan(bounds[sp], bounds[sp+1])
		}
	})
	out := zero()
	for sp := 0; sp < ns; sp++ {
		out = merge(out, accs[sp])
	}
	return out
}

// GetScratch leases a value previously released with PutScratch under the
// same key, or returns nil when none is cached. The store keeps small,
// fixed-size working state warm across launches — never anything whose
// size scales with the data, which would stay parked at its high-water
// size for the life of the pool: values live until the pool is closed or
// collected, are reset rather than reallocated, and concurrent loops
// lease disjoint instances.
func (p *Pool) GetScratch(key any) any {
	p.scratchMu.Lock()
	defer p.scratchMu.Unlock()
	list := p.scratch[key]
	if len(list) == 0 {
		return nil
	}
	v := list[len(list)-1]
	list[len(list)-1] = nil
	p.scratch[key] = list[:len(list)-1]
	return v
}

// PutScratch returns a leased value to the pool's scratch store. v must
// not reference the pool (see NewPool): a value that needs the pool while
// it is leased takes it when it is acquired and drops it here. After Close
// the value is dropped instead of parked.
func (p *Pool) PutScratch(key any, v any) {
	p.scratchMu.Lock()
	defer p.scratchMu.Unlock()
	if p.scratchClosed {
		return
	}
	if p.scratch == nil {
		p.scratch = make(map[any][]any)
	}
	p.scratch[key] = append(p.scratch[key], v)
}
