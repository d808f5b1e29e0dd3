// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus per-kernel micro-benchmarks for the eight algorithms
// and the substrates they run on.
//
// Each BenchmarkTableN / BenchmarkFigN iteration performs the full
// regeneration of that artifact — instrumented algorithm runs plus the
// nine-cap processor-model sweep — on a bench-sized data set (override
// with VIZPOWER_BENCH_SIZE; the cmd/vizpower CLI runs the paper-sized
// campaign). The data set itself is built once and shared; a fresh
// harness configuration per iteration keeps the runs un-cached.
package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/render"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
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

// benchConfig returns a fresh, uncached config over the shared grid.
func benchConfig(b *testing.B, sizes ...int) *harness.Config {
	b.Helper()
	c := (&harness.Config{
		Pool:  par.Default(),
		Sizes: sizes, PhaseSize: sizes[0],
		Images: 4, ImageSize: 48,
		Particles: 64, ParticleSteps: 200, Isovalues: 10,
		MaxSimSize: sizes[len(sizes)-1], SimTime: 0.05,
	}).Defaults()
	for _, n := range sizes {
		c.Preload(n, benchGrid(b, n))
	}
	return c
}

// BenchmarkTable1Phase1 regenerates Table I: the contour power-cap sweep.
func BenchmarkTable1Phase1(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n)
		run, err := c.Phase1()
		if err != nil {
			b.Fatal(err)
		}
		if harness.Table1(run, c.Caps) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Phase2 regenerates Table II: all eight algorithms under
// all nine caps.
func BenchmarkTable2Phase2(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n)
		runs, err := c.Phase2()
		if err != nil {
			b.Fatal(err)
		}
		if harness.Table2(runs, c.Caps) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Phase3 regenerates Table III: the full size sweep (two
// sizes at bench scale).
func BenchmarkTable3Phase3(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	benchGrid(b, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n, 2*n)
		all, err := c.Phase3()
		if err != nil {
			b.Fatal(err)
		}
		if harness.Table3(all[2*n], c.Caps) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1Render regenerates the eight Figure 1 images.
func BenchmarkFig1Render(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n)
		if _, err := c.RenderFig1(n, 64, dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Metrics regenerates Figures 2a/2b/2c: frequency, IPC, and
// LLC-miss-rate curves for all algorithms.
func BenchmarkFig2Metrics(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n)
		runs, err := c.Phase2()
		if err != nil {
			b.Fatal(err)
		}
		if len(harness.Fig2a(runs, c.Caps))+len(harness.Fig2b(runs, c.Caps))+len(harness.Fig2c(runs, c.Caps)) != 24 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFig3Rate regenerates Figure 3: elements/second for the
// cell-centered algorithms.
func BenchmarkFig3Rate(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n)
		runs, err := c.Phase2()
		if err != nil {
			b.Fatal(err)
		}
		if len(harness.Fig3(runs, c.Caps)) != 5 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFig456IPCBySize regenerates Figures 4-6: IPC versus cap across
// data-set sizes for slice, volume rendering, and particle advection.
func BenchmarkFig456IPCBySize(b *testing.B) {
	n := benchSize()
	benchGrid(b, n)
	benchGrid(b, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchConfig(b, n, 2*n)
		for _, alg := range []string{"Slice", "Volume Rendering", "Particle Advection"} {
			bySize, err := c.RunsBySize(alg)
			if err != nil {
				b.Fatal(err)
			}
			if len(harness.FigIPCBySize(bySize, c.SortedSizes(), c.Caps)) != 2 {
				b.Fatal("wrong series count")
			}
		}
	}
}

// benchFilter micro-benchmarks one algorithm kernel on the shared grid,
// reporting throughput in cells per second.
func benchFilter(b *testing.B, name string) {
	n := benchSize()
	g := benchGrid(b, n)
	c := benchConfig(b, n)
	f, err := c.FilterByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pool := par.Default()
	b.ResetTimer()
	var elements int64
	for i := 0; i < b.N; i++ {
		ex := viz.NewExec(pool)
		res, err := f.Run(g, ex)
		if err != nil {
			b.Fatal(err)
		}
		elements = res.Elements
	}
	b.ReportMetric(float64(elements)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkKernelContour(b *testing.B)           { benchFilter(b, "Contour") }
func BenchmarkKernelSphericalClip(b *testing.B)     { benchFilter(b, "Spherical Clip") }
func BenchmarkKernelIsovolume(b *testing.B)         { benchFilter(b, "Isovolume") }
func BenchmarkKernelThreshold(b *testing.B)         { benchFilter(b, "Threshold") }
func BenchmarkKernelSlice(b *testing.B)             { benchFilter(b, "Slice") }
func BenchmarkKernelRayTracing(b *testing.B)        { benchFilter(b, "Ray Tracing") }
func BenchmarkKernelParticleAdvection(b *testing.B) { benchFilter(b, "Particle Advection") }
func BenchmarkKernelVolumeRendering(b *testing.B)   { benchFilter(b, "Volume Rendering") }

// BenchmarkCellCold measures a cell-emitting kernel the way the campaign
// pays for it: once, cold, on a pool of its own. Every iteration takes a
// fresh pool, runs the filter and closes the pool, so growing the scratch
// is inside the timing and -benchmem counts it. live-MB is the heap still
// reachable after the loop and a collection — the data set plus whatever
// the runs left behind. 128 needs about 2 GB.
func BenchmarkCellCold(b *testing.B) {
	for _, alg := range []struct{ key, name string }{{"clip", "Spherical Clip"}, {"isovolume", "Isovolume"}} {
		for _, n := range []int{64, 128} {
			b.Run(fmt.Sprintf("%s-%d", alg.key, n), func(b *testing.B) {
				g := benchGrid(b, n)
				f, err := benchConfig(b, n).FilterByName(alg.name)
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

// BenchmarkCloverStep measures the hydro proxy's per-step cost, by edge
// length and worker count (the scaling column).
func BenchmarkCloverStep(b *testing.B) {
	for _, n := range []int{32, 64} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				s, err := clover.New(n, clover.Options{})
				if err != nil {
					b.Fatal(err)
				}
				pool := par.NewPool(workers)
				defer pool.Close()
				s.Run(5, pool, nil) // past the flat initial deck
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(pool, nil)
				}
				b.ReportMetric(float64(s.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}

// BenchmarkBVHBuild measures acceleration-structure construction over the
// grid's external faces.
func BenchmarkBVHBuild(b *testing.B) {
	g := benchGrid(b, benchSize())
	tris, err := mesh.GridExternalFaces(g, "energy")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if raytrace.BuildBVHWith(tris, nil) == nil {
			b.Fatal("nil BVH")
		}
	}
	b.ReportMetric(float64(tris.NumTris()), "tris")
}

// BenchmarkModelAnalyze measures the processor-model analysis of a
// profile (the cap-independent step).
func BenchmarkModelAnalyze(b *testing.B) {
	var p ops.Profile
	p.Flops = 1e9
	p.IntOps = 3e8
	p.Branches = 1e8
	p.LoadBytes[ops.Stream] = 4e9
	p.LoadBytes[ops.Strided] = 1e9
	p.WorkingSetBytes = 64 << 20
	p.Launches = 10
	spec := cpu.BroadwellEP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cpu.Analyze(spec, p, 0)
		if e.Instructions == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkGovernorSweep measures the nine-cap RAPL governor sweep.
func BenchmarkGovernorSweep(b *testing.B) {
	var p ops.Profile
	p.Flops = 1e9
	p.LoadBytes[ops.Stream] = 4e9
	p.WorkingSetBytes = 64 << 20
	e := cpu.Analyze(cpu.BroadwellEP(), p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 120.0; w >= 40; w -= 10 {
			r := e.UnderCap(w)
			if r.TimeSec <= 0 {
				b.Fatal("bad result")
			}
		}
	}
}

// BenchmarkRAPLTrace measures the 100 ms virtual-time sampling loop over a
// governed execution (the Section V-B methodology).
func BenchmarkRAPLTrace(b *testing.B) {
	var p ops.Profile
	p.Flops = 5e10 // a few seconds of modeled runtime
	p.LoadBytes[ops.Stream] = 1e10
	p.WorkingSetBytes = 64 << 20
	spec := cpu.BroadwellEP()
	e := cpu.Analyze(spec, p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkg := rapl.NewPackage(msr.NewFile(), spec)
		if err := pkg.SetLimitWatts(70); err != nil {
			b.Fatal(err)
		}
		samples, _, err := perfctr.Trace(pkg, []cpu.Execution{e}, perfctr.DefaultInterval)
		if err != nil {
			b.Fatal(err)
		}
		if len(samples) == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkMorelandRate measures the Fig. 3 metric computation.
func BenchmarkMorelandRate(b *testing.B) {
	r := cpu.CapResult{TimeSec: 1.5}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += metrics.Rate(1<<21, r.TimeSec)
	}
	if sink == 0 {
		b.Fatal("unexpected zero")
	}
}

// renderOrbit returns a standard orbit camera over a grid (shared by the
// distributed benches).
func renderOrbit(g *mesh.UniformGrid) render.Camera {
	return render.OrbitCamera(g.Bounds(), 0.7, 0.4, 2.0)
}
