// Ablation benchmarks for the design choices the implementation makes:
// dynamic-chunk grain size in the parallel runtime, BVH acceleration
// versus brute-force intersection, point welding of clipped outputs,
// worker-count scaling of a representative kernel, governor ladder
// granularity, and the virtual-time sampling interval. Each quantifies
// what the chosen default buys.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/clip"
	"repro/internal/viz/contour"
	"repro/internal/viz/raytrace"
)

// BenchmarkAblationGrain sweeps the parallel-for chunk size over the
// contour kernel: too-small grains pay scheduling atomics, too-large
// grains load-imbalance on the cells that produce geometry.
func BenchmarkAblationGrain(b *testing.B) {
	g := benchGrid(b, benchSize())
	pool := par.NewPool(4)
	for _, grain := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("grain%d", grain), func(b *testing.B) {
			n := g.NumCells()
			f := g.PointField("energy")
			if f == nil {
				var err error
				f, err = g.CellToPoint("energy")
				if err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < b.N; i++ {
				var total float64
				got := par.Reduce(pool, n, grain,
					func() float64 { return 0 },
					func(lo, hi int, acc float64) float64 {
						for c := lo; c < hi; c++ {
							pts := g.CellPoints(c)
							vmin, vmax := f[pts[0]], f[pts[0]]
							for k := 1; k < 8; k++ {
								v := f[pts[k]]
								if v < vmin {
									vmin = v
								}
								if v > vmax {
									vmax = v
								}
							}
							acc += vmax - vmin
						}
						return acc
					},
					func(a, c float64) float64 { return a + c },
				)
				total += got
				if total == 0 {
					b.Fatal("degenerate field")
				}
			}
		})
	}
}

// BenchmarkAblationBVH times accelerated nearest-hit queries on the grid
// surface — the structure the ray tracer builds every cycle. (Its
// brute-force counterpart is the test oracle in raytrace's
// reference_test.go.)
func BenchmarkAblationBVH(b *testing.B) {
	g := benchGrid(b, benchSize())
	tris, err := mesh.GridExternalFaces(g, "energy")
	if err != nil {
		b.Fatal(err)
	}
	bvh := raytrace.BuildBVHWith(tris, nil)
	rng := rand.New(rand.NewSource(1))
	rays := make([][2]mesh.Vec3, 256)
	for i := range rays {
		orig := mesh.Vec3{rng.Float64()*3 - 1, rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		dir := mesh.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Normalize()
		rays[i] = [2]mesh.Vec3{orig, dir}
	}
	b.Run("bvh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range rays {
				bvh.Intersect(tris, r[0], r[1], nil)
			}
		}
	})
}

// BenchmarkAblationWeld measures the cost of the point-welding pass that
// restores shared connectivity in clipped outputs.
func BenchmarkAblationWeld(b *testing.B) {
	g := benchGrid(b, benchSize())
	res, err := clip.New(clip.Options{Field: "energy"}).Run(g, viz.NewExec(par.Default()))
	if err != nil {
		b.Fatal(err)
	}
	um := res.Cells
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mesh.WeldPointsPool(um, 1e-9, nil)
		if w.NumCells() != um.NumCells() {
			b.Fatal("weld changed cell count")
		}
	}
}

// BenchmarkAblationWorkers scales the contour kernel across pool sizes.
func BenchmarkAblationWorkers(b *testing.B) {
	g := benchGrid(b, benchSize())
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			pool := par.NewPool(w)
			f := contour.New(contour.Options{Field: "energy", NumIsovalues: 3})
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(g, viz.NewExec(pool)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLadderStep sweeps the governor's P-state granularity:
// a finer ladder tracks the cap more closely at higher search cost.
func BenchmarkAblationLadderStep(b *testing.B) {
	var p ops.Profile
	p.Flops = 1e9
	p.LoadBytes[ops.Stream] = 4e9
	p.WorkingSetBytes = 64 << 20
	for _, step := range []float64{0.2, 0.1, 0.05, 0.025} {
		b.Run(fmt.Sprintf("step%v", step), func(b *testing.B) {
			spec := cpu.BroadwellEP()
			spec.StepGHz = step
			e := cpu.Analyze(spec, p, 0)
			for i := 0; i < b.N; i++ {
				for w := 120.0; w >= 40; w -= 10 {
					if e.UnderCap(w).TimeSec <= 0 {
						b.Fatal("bad result")
					}
				}
			}
		})
	}
}

// BenchmarkAblationSampleInterval sweeps the virtual-time sampling cadence
// of the RAPL trace (the paper samples at 100 ms).
func BenchmarkAblationSampleInterval(b *testing.B) {
	var p ops.Profile
	p.Flops = 5e10
	p.LoadBytes[ops.Stream] = 1e10
	p.WorkingSetBytes = 64 << 20
	spec := cpu.BroadwellEP()
	e := cpu.Analyze(spec, p, 0)
	for _, interval := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("dt%vms", interval*1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pkg := rapl.NewPackage(msr.NewFile(), spec)
				if err := pkg.SetLimitWatts(70); err != nil {
					b.Fatal(err)
				}
				if _, _, err := perfctr.Trace(pkg, []cpu.Execution{e}, interval); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistHydroStep measures the halo-exchanged distributed hydro
// step across rank counts (same global problem size, so it exposes the
// exchange and lockstep overhead on one machine).
func BenchmarkDistHydroStep(b *testing.B) {
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			d, err := dist.NewDistSim(benchSize(), ranks, clover.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pool := par.Default()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Step(pool, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchSize()*benchSize()*benchSize())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkDistComposite measures sort-last volume compositing end to end.
func BenchmarkDistComposite(b *testing.B) {
	g := benchGrid(b, benchSize())
	pool := par.Default()
	cam := renderOrbit(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.VolumeRender(g, "energy", 4, cam, 64, 64, pool); err != nil {
			b.Fatal(err)
		}
	}
}
