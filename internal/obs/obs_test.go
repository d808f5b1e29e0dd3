package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks_total", "tasks executed")
	c.Inc()
	c.Add(4)
	c.Add(-10) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("cap_watts", "current cap")
	g.Set(72.5)
	if got := g.Value(); got != 72.5 {
		t.Fatalf("gauge = %v, want 72.5", got)
	}
	fc := r.FloatCounter("energy_joules_total", "joules")
	fc.Add(1.25)
	fc.Add(0.75)
	fc.Add(-3) // ignored
	if got := fc.Value(); got != 2.0 {
		t.Fatalf("float counter = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "op latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // le=0.1 gets 0.05 and 0.1 (inclusive bound)
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if s := h.Sum(); s != 102.65 {
		t.Fatalf("sum = %v, want 102.65", s)
	}
}

// sharded registers a sharded counter the way its one user (the dist
// fabric) does: built free, folded into a series by a CounterFunc.
func sharded(r *Registry, name string, shards int) *ShardedCounter {
	sc := NewShardedCounter(shards)
	r.CounterFunc(name, "sharded", func() float64 { return float64(sc.Value()) })
	return sc
}

func TestShardedCounterFolds(t *testing.T) {
	sc := NewShardedCounter(4)
	var wg sync.WaitGroup
	for shard := 0; shard < 8; shard++ { // indices beyond shard count wrap
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sc.Inc(shard)
			}
		}(shard)
	}
	wg.Wait()
	if got := sc.Value(); got != 8000 {
		t.Fatalf("folded value = %d, want 8000", got)
	}
	sc.Add(-3, 5) // negative shard clamps, still lands
	if got := sc.Value(); got != 8005 {
		t.Fatalf("folded value = %d, want 8005", got)
	}
}

// TestNilRegistryAndHandles exercises the disabled path: a nil registry
// hands out nil handles and every operation is a safe no-op.
func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "x")
	g := r.Gauge("b", "x")
	fc := r.FloatCounter("c_total", "x")
	h := r.Histogram("d", "x", []float64{1})
	var sc *ShardedCounter
	r.CounterFunc("f_total", "x", func() float64 { return 1 })
	r.GaugeFunc("g", "x", func() float64 { return 1 })
	r.HistogramFunc("h", "x", []float64{1}, func() ([]int64, float64) { return nil, 0 })

	c.Inc()
	c.Add(3)
	g.Set(1)
	fc.Add(1)
	h.Observe(1)
	sc.Inc(0)
	if c.Value() != 0 || g.Value() != 0 || fc.Value() != 0 || h.Count() != 0 || sc.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry scrape: err=%v len=%d", err, sb.Len())
	}
}

// TestHotPathAllocs pins the allocation-free contract for every
// recording operation, enabled and disabled.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "x")
	fc := r.FloatCounter("b_total", "x")
	g := r.Gauge("c", "x")
	h := r.Histogram("d", "x", []float64{0.001, 0.01, 0.1, 1, 10})
	sc := sharded(r, "e_total", 8)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"FloatCounter.Add", func() { fc.Add(0.5) }},
		{"Gauge.Set", func() { g.Set(3) }},
		{"Histogram.Observe", func() { h.Observe(0.05) }},
		{"ShardedCounter.Add", func() { sc.Add(3, 1) }},
		{"nil Counter.Add", func() { (*Counter)(nil).Add(1) }},
		{"nil Histogram.Observe", func() { (*Histogram)(nil).Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x", L("a", "1"))
	mustPanic("duplicate series", func() { r.Counter("dup_total", "x", L("a", "1")) })
	mustPanic("type mismatch", func() { r.Gauge("dup_total", "x") })
	mustPanic("bad name", func() { r.Counter("9bad", "x") })
	mustPanic("bad label", func() { r.Counter("ok_total", "x", L("le", "1")) })
	mustPanic("bad bounds", func() { r.Histogram("h", "x", []float64{2, 1}) })
}
