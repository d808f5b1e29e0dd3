// What is left of the root microbenchmarks after bench/ became the one
// ledger: only measurements no BENCHMARK.json per-layer row can hold.
// Every other arm that lived here (tables, figures, the eight kernels,
// hydro step, BVH, model analysis, RAPL trace, governor, obs, serve,
// advection, render frames, cinema) is a row of `make bench` now —
// bench/README.md maps them — and its recorded history is
// BENCH_HISTORY.json. Run with `make bench-go BENCH=<regexp>`.
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// benchSize returns the data-set edge length for the benchmarks.
func benchSize() int {
	if s := os.Getenv("VIZPOWER_BENCH_SIZE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 8 {
			return n
		}
	}
	return 24
}

var benchGrids = map[int]*mesh.UniformGrid{}

// benchGrid builds (once) the shared hydro data set at size n.
func benchGrid(b *testing.B, n int) *mesh.UniformGrid {
	b.Helper()
	if g, ok := benchGrids[n]; ok {
		return g
	}
	c := (&harness.Config{
		Pool: par.Default(), Sizes: []int{n}, PhaseSize: n,
		MaxSimSize: n, SimTime: 0.05,
	}).Defaults()
	g, err := c.Dataset(n)
	if err != nil {
		b.Fatal(err)
	}
	benchGrids[n] = g
	return g
}

// BenchmarkCellCold measures a cell-emitting kernel the way the campaign
// pays for it: once, cold, on a pool of its own. Every iteration takes a
// fresh pool, runs the filter and closes the pool, so growing the scratch
// is inside the timing and -benchmem counts it. live-MB is the heap still
// reachable after the loop and a collection — the data set plus whatever
// the runs left behind. 128 needs about 2 GB. (The ledger stops at 64^3,
// warm.)
func BenchmarkCellCold(b *testing.B) {
	for _, alg := range []struct{ key, name string }{{"clip", "Spherical Clip"}, {"isovolume", "Isovolume"}} {
		for _, n := range []int{64, 128} {
			b.Run(fmt.Sprintf("%s-%d", alg.key, n), func(b *testing.B) {
				g := benchGrid(b, n)
				f, err := new(harness.Config).FilterByName(alg.name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pool := par.NewPool(0)
					if _, err := f.Run(g, viz.NewExec(pool)); err != nil {
						b.Fatal(err)
					}
					pool.Close()
				}
				b.StopTimer()
				runtime.GC()
				runtime.GC() // the last pool's workers exit after Close returns
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MB")
			})
		}
	}
}
