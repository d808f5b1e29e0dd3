package obs

import (
	"io"
	"testing"

	"repro/internal/perfctr"
	"repro/internal/telemetry"
)

// The record-path benchmarks pin the hot-path cost model the package
// doc promises: one atomic add per Inc/Observe, zero allocations, and
// a nil handle that costs a branch. Recorded in BENCH_HISTORY.json (pr 10).

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsNilCounterInc(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsShardedInc(b *testing.B) {
	c := NewShardedCounter(32)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		shard := 0
		for pb.Next() {
			c.Inc(shard)
			shard++
		}
	})
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "bench",
		[]float64{0.001, 0.01, 0.1, 1, 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.05)
	}
}

func BenchmarkObsFloatCounterAdd(b *testing.B) {
	c := NewRegistry().FloatCounter("bench_joules_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(0.125)
	}
}

// BenchmarkObsScrape measures one full exposition pass over a registry
// shaped like the serving daemon's: a mix of counters, labeled series,
// gauges, histograms, and func-backed collectors.
func BenchmarkObsScrape(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{
		"a_total", "b_total", "c_total", "d_total", "e_total",
	} {
		r.Counter(name, "bench").Add(123)
	}
	for _, h := range []string{"render", "cinema", "sweep"} {
		r.Counter("req_total", "bench", L("handler", h)).Inc()
		r.Histogram("req_seconds", "bench",
			[]float64{0.001, 0.01, 0.1, 1, 10}, L("handler", h)).Observe(0.02)
	}
	for _, name := range []string{"g1", "g2", "g3", "g4"} {
		r.Gauge(name, "bench").Set(1.5)
	}
	r.CounterFunc("fn_total", "bench", func() float64 { return 42 })
	r.GaugeFunc("fn_gauge", "bench", func() float64 { return 7 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsAttribute measures the energy-attribution join at a
// profile-sized input: ~16 stages over a 4096-sample meter timeline.
func BenchmarkObsAttribute(b *testing.B) {
	stats := make([]telemetry.StageStat, 16)
	for i := range stats {
		stats[i] = telemetry.StageStat{
			Name: "stage" + string(rune('a'+i)), Count: 100,
			TotalNs: int64(1+i) * 1e7, SelfNs: int64(1+i) * 5e6,
		}
	}
	samples := make([]perfctr.Sample, 4096)
	for i := range samples {
		samples[i] = perfctr.Sample{TimeSec: float64(i) * 0.1, EnergyJ: 6.5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := Attribute(stats, samples)
		if len(rows) != len(stats) {
			b.Fatal("bad join")
		}
	}
}
