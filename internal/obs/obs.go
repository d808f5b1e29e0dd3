// Package obs is the unified metrics plane of the reproduction: a
// zero-dependency, allocation-free-on-the-hot-path metrics registry
// (atomic counters, gauges, and fixed-bucket histograms under a small
// static label set, plus cache-line-padded per-worker shards folded at
// scrape) with a deterministic Prometheus text-format encoder, an
// energy-attribution join between telemetry span self time and power
// meter samples, and a bounded flight recorder for governor cap
// decisions.
//
// The paper's whole argument rests on measuring where joules and
// seconds go per phase; production in situ stacks make the matching
// point about observability — it must be low-overhead and always on,
// or nobody trusts the numbers taken with it enabled. Two properties
// are therefore load-bearing, mirroring internal/telemetry:
//
//   - The disabled path is free. A nil *Registry returns nil handles,
//     and every method on a nil handle (Counter.Add, Gauge.Set,
//     Histogram.Observe, ...) is a no-op — instrumented code carries
//     one nil check and no allocation, so the uninstrumented dispatch
//     path stays at the PR 1/PR 5 baseline (BENCH_HISTORY.json).
//
//   - Recording is lock-free and allocation-free. A Counter.Add is one
//     atomic add; a Histogram.Observe is a bounds scan plus two atomic
//     adds and a CAS-accumulated float sum; a ShardedCounter.Add hits a
//     cache-line-padded per-worker slot that is folded into one series
//     only at scrape time. Registration (startup-time) takes a lock;
//     the hot path never does.
//
// Scrapes are consistent per series, not across series — the same
// contract as par.Pool.Stats.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one static label pair on a series. Labels are fixed at
// registration; the hot path never formats or hashes them.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label at a registration site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kinds, also the Prometheus TYPE line text.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a family: exactly one backing
// store is non-nil.
type series struct {
	labels []Label
	sig    string // canonical label signature, the intra-family sort key

	c  *Counter
	fc *FloatCounter
	g  *Gauge
	h  *Histogram

	// fn backs scrape-time counters/gauges (values read from an
	// existing subsystem snapshot, e.g. par.PoolStats or CacheStats).
	fn func() float64
	// hfn backs scrape-time histograms: per-bucket counts (length
	// len(bounds)+1, last bucket unbounded) and the value sum; the
	// observation count is the bucket total.
	hfn func() (buckets []int64, sum float64)
}

// family is one metric name: its help, type, and labeled series.
type family struct {
	name, help, kind string
	bounds           []float64 // histograms only
	series           []*series // sorted by sig
}

// Registry holds metric families and renders them in Prometheus text
// format. A nil *Registry is valid and permanently disabled: every
// constructor returns a nil handle and WritePrometheus writes nothing.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds one series under name, creating the family on first
// sight. It panics on a name registered twice with a different type or
// help, on an invalid name or label, and on a duplicate label set —
// registration happens once at startup, where a panic is a build error,
// not a runtime hazard.
func (r *Registry) register(name, help, kind string, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) || l.Key == "le" {
			panic(fmt.Sprintf("obs: invalid label key %q on %s", l.Key, name))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	sig := labelSignature(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds}
		r.fams[name] = f
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %s and %s", name, f.kind, kind))
		}
		if len(f.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: %s registered with different bucket bounds", name))
		}
	}
	for _, s := range f.series {
		if s.sig == sig {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, sig))
		}
	}
	s := &series{labels: sorted, sig: sig}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].sig < f.series[j].sig })
	return s
}

// Counter registers a monotonically increasing integer counter and
// returns its handle. On a nil registry it returns nil (a valid,
// disabled handle).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, kindCounter, nil, labels).c = c
	return c
}

// FloatCounter registers a monotonically increasing float counter
// (accumulated joules, seconds) and returns its handle.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	if r == nil {
		return nil
	}
	c := &FloatCounter{}
	r.register(name, help, kindCounter, nil, labels).fc = c
	return c
}

// Gauge registers a gauge and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, kindGauge, nil, labels).g = g
	return g
}

// Histogram registers a fixed-bucket histogram. bounds are the
// inclusive upper bounds of the finite buckets, ascending; an implicit
// +Inf bucket is appended. The slice is retained; do not mutate it.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	h := &Histogram{bounds: bounds, buckets: make([]padCounter, len(bounds)+1)}
	r.register(name, help, kindHistogram, bounds, labels).h = h
	return h
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the adapter for subsystems that already keep their own padded
// per-worker counters (par.PoolStats, dist.FabricTotals, CacheStats):
// the existing shards are the hot path, the fold happens here.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, nil, labels).fn = fn
}

// GaugeFunc registers a gauge read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, nil, labels).fn = fn
}

// HistogramFunc registers a histogram whose buckets are read at scrape
// time: fn returns per-bucket (non-cumulative) counts of length
// len(bounds)+1 and the observation sum; the count is the bucket
// total. The pool's chunk-latency buckets are exported this way — par
// already counts them per worker; the scrape folds and cumulates.
func (r *Registry) HistogramFunc(name, help string, bounds []float64, fn func() ([]int64, float64), labels ...Label) {
	if r == nil {
		return
	}
	checkBounds(name, bounds)
	r.register(name, help, kindHistogram, bounds, labels).hfn = fn
}

func checkBounds(name string, bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: %s bucket bounds not ascending", name))
		}
	}
}

// padCounter is an atomic counter padded to a cache line so neighboring
// histogram buckets / shards never false-share under concurrent adds.
type padCounter struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing integer counter. All methods
// are safe on a nil receiver (no-ops / zero).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter is a monotonically increasing float64 counter
// (accumulated joules, seconds), CAS-accumulated without locks.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v (negative v is ignored).
func (c *FloatCounter) Add(v float64) {
	if c == nil || v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 gauge: one atomic word, set-dominated.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: an Observe is a linear bounds
// scan (the static bucket sets here have ≤ a dozen bounds — a branchy
// binary search would cost more than it saves), one padded bucket add,
// a CAS-accumulated sum, and a count add. No allocation, no locks.
type Histogram struct {
	bounds  []float64
	buckets []padCounter // len(bounds)+1; last is +Inf
	sum     FloatCounter
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].v.Add(1)
	if v >= 0 {
		h.sum.Add(v)
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot reads the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].v.Load()
	}
	return out
}

// ShardedCounter spreads increments over padded shards; Value folds
// them. Shard indices out of range wrap, so a worker index is always a
// valid shard.
type ShardedCounter struct{ shards []padCounter }

// NewShardedCounter builds a sharded counter without registering it —
// for package-level counters (the dist fabric) that outlive any one
// registry and are exported later through CounterFunc.
func NewShardedCounter(shards int) *ShardedCounter {
	if shards < 1 {
		shards = 1
	}
	return &ShardedCounter{shards: make([]padCounter, shards)}
}

// Add increments shard's slot by n.
func (s *ShardedCounter) Add(shard int, n int64) {
	if s == nil || n < 0 {
		return
	}
	if shard < 0 {
		shard = 0
	}
	s.shards[shard%len(s.shards)].v.Add(n)
}

// Inc increments shard's slot by one.
func (s *ShardedCounter) Inc(shard int) { s.Add(shard, 1) }

// Value folds every shard into the series total.
func (s *ShardedCounter) Value() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for i := range s.shards {
		n += s.shards[i].v.Load()
	}
	return n
}

// validName reports whether s is a legal Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// labelSignature renders sorted labels as the canonical {k="v",...}
// exposition fragment — both the sort key and the rendered text, so
// ordering and output can never disagree.
func labelSignature(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes for label
// values: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp applies the exposition-format escapes for HELP text:
// backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}
