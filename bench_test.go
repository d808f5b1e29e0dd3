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
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/serve"
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

// BenchmarkHydroDataset times what every data set costs before a kernel
// sees it: BuildDataset at 64^3, the hydro run to SimTime and the export,
// on the default pool, at the ledger's step-time horizon (t = 0.05) and the
// study's (t = 0.12); steps is the number of hydro steps the run took. The
// resample arm is the other way a data set is made: 128^3 resampled from
// a cached 64^3 run (MaxSimSize 64), the paper-scale 256^3-from-128^3
// resample at an eighth of its size.
// (128^3 is no hydro arm: the study's data set takes seconds a run.)
func BenchmarkHydroDataset(b *testing.B) {
	for _, simTime := range []float64{0.05, 0.12} {
		b.Run(fmt.Sprintf("64-t%g", simTime), func(b *testing.B) {
			var steps int
			c := (&harness.Config{
				Pool: par.Default(), Sizes: []int{64}, PhaseSize: 64,
				MaxSimSize: 64, SimTime: simTime,
				Progress: func(msg string) {
					// "dataset 64^3: hydro ran <steps> steps to t=..."; any
					// other line leaves steps as it was.
					_, _ = fmt.Sscanf(msg, "dataset 64^3: hydro ran %d steps", &steps)
				},
			}).Defaults()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.BuildDataset(64, c.Dataset); err != nil {
					b.Fatal(err)
				}
			}
			if steps == 0 {
				b.Fatal("BuildDataset reported no hydro run")
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
	b.Run("resample-128", func(b *testing.B) {
		c := (&harness.Config{
			Pool: par.Default(), Sizes: []int{128}, PhaseSize: 64,
			MaxSimSize: 64, SimTime: 0.05,
		}).Defaults()
		if _, err := c.Dataset(64); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.BuildDataset(128, c.Dataset); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCellCold measures an emitting kernel the way the campaign
// pays for it: once, cold, on a pool of its own. Every iteration takes a
// fresh pool, runs the filter and closes the pool, so everything the run
// allocates is inside the timing and -benchmem counts it. live-MB is the
// heap still reachable after the loop and a collection — the data set
// plus whatever the runs left behind. Every count → scan → fill emitter,
// the step-budget trails and the two image filters (the paper's orbit of
// 50 images at 128x128) have a row; the 128 arms are the paper-scale
// witness on a box that cannot run the 256^3 study (clip-128 allocates
// about 113 MB a run beside the ~120 MB data set, 399 MB when it welded
// by position). (The ledger stops at 64^3, warm.)
func BenchmarkCellCold(b *testing.B) {
	for _, alg := range []struct {
		key, name string
		sizes     []int
	}{
		{"clip", "Spherical Clip", []int{64, 128}},
		{"isovolume", "Isovolume", []int{64, 128}},
		{"contour", "Contour", []int{64, 128}},
		{"threshold", "Threshold", []int{64, 128}},
		{"slice", "Slice", []int{64, 128}},
		{"advect", "Particle Advection", []int{64}},
		{"volren", "Volume Rendering", []int{64}},
		{"raytrace", "Ray Tracing", []int{64}},
	} {
		for _, n := range alg.sizes {
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

// BenchmarkServeFrame is one warm /render round trip, the request the
// serve-warm workload's viewers repeat: a loopback HTTP GET through
// serve.New's handler for the next of the 50 orbit frames of the 64^3
// data set at 128x128, with the derived structure already cached, read
// to the end of the PNG. Admission, the frame render, the PNG encode and
// HTTP are all inside the timing; the ledger's render.png_encode_us
// encodes a synthetic gradient instead of a rendered frame.
func BenchmarkServeFrame(b *testing.B) {
	for _, alg := range []string{"volren", "raytrace"} {
		b.Run(alg+"-64", func(b *testing.B) {
			cfg := &harness.Config{
				Pool: par.Default(), Sizes: []int{64}, PhaseSize: 64,
				MaxSimSize: 64, SimTime: 0.05, Images: 50, ImageSize: 128,
			}
			if err := cfg.Preload(64, benchGrid(b, 64)); err != nil {
				b.Fatal(err)
			}
			s := serve.New(serve.Options{Config: cfg, BudgetWatts: 130, CinemaDir: b.TempDir()})
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				if err := s.Close(); err != nil {
					b.Error(err)
				}
			}()
			get := func(frame int) {
				resp, err := ts.Client().Get(fmt.Sprintf("%s/render?alg=%s&frame=%d", ts.URL, alg, frame))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("frame %d: status %d, %v", frame, resp.StatusCode, err)
				}
			}
			get(0) // builds the renderer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(i % 50)
			}
		})
	}
}
