// Benchmarks for the PR 3 render hot path: the macrocell ray marcher,
// the binned-SAH BVH build, the traced frame, and the pipelined cinema
// sink against the synchronous one. BENCH_PR3.json records the first two
// against the reference sampler and sort-median build that are now the
// golden tests' oracles (reference_test.go in volren and raytrace).
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cinema"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// blobBenchGrid builds a gaussian-blob volume (the volren test data set)
// at size n, cached across benchmarks.
var blobBenchGrids = map[int]*mesh.UniformGrid{}

func blobBenchGrid(b *testing.B, n int) *mesh.UniformGrid {
	b.Helper()
	if g, ok := blobBenchGrids[n]; ok {
		return g
	}
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		b.Fatal(err)
	}
	f := g.AddPointField("energy")
	c := mesh.Vec3{0.5, 0.5, 0.5}
	for id := 0; id < g.NumPoints(); id++ {
		d := g.PointPosition(id).Sub(c).Norm()
		f[id] = math.Exp(-10 * d * d)
	}
	blobBenchGrids[n] = g
	return g
}

func volrenTF(g *mesh.UniformGrid, transparent float64) render.TransferFunction {
	lo, hi := mesh.FieldRange(g.PointField("energy"))
	return render.TransferFunction{
		Norm:         render.Normalizer{Lo: lo, Hi: hi},
		OpacityScale: 0.25,
		Transparent:  transparent,
	}
}

// BenchmarkVolrenFrame renders one 128x128 orbit frame with the macrocell
// marcher (amortized acceleration state) at 32^3 and 64^3, with and
// without a transparency threshold. cells/s counts grid cells per
// rendered frame.
func BenchmarkVolrenFrame(b *testing.B) {
	for _, n := range []int{32, 64} {
		for _, cfg := range []struct {
			name        string
			transparent float64
		}{
			{"fast", 0},
			{"fast-skip", 0.35},
		} {
			b.Run(fmt.Sprintf("%s-%d", cfg.name, n), func(b *testing.B) {
				g := blobBenchGrid(b, n)
				field := g.PointField("energy")
				tf := volrenTF(g, cfg.transparent)
				cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
				ex := viz.NewExec(par.Default())
				r := volren.NewRenderer(g, field, tf, ex)
				var im *render.Image
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					im = r.RenderImageInto(im, cam, 128, 128, ex)
				}
				b.ReportMetric(float64(g.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}

// BenchmarkRayTraceFrame traces one 128x128 orbit frame of the external
// surface at 32^3 and 64^3.
func BenchmarkRayTraceFrame(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			g := benchGrid(b, n)
			ex := viz.NewExec(par.Default())
			scene, err := raytrace.GatherScene(g, "energy", ex)
			if err != nil {
				b.Fatal(err)
			}
			cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
			var im *render.Image
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im = scene.RenderInto(im, cam, 128, 128, ex)
			}
			b.ReportMetric(float64(g.NumCells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkBVHBuildPaths times the parallel binned-SAH construction over
// the external faces at 32^3 and 64^3.
func BenchmarkBVHBuildPaths(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := benchGrid(b, n)
		tris, err := mesh.GridExternalFaces(g, "energy")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sah-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			pool := par.Default()
			for i := 0; i < b.N; i++ {
				if raytrace.BuildBVHWith(tris, pool) == nil {
					b.Fatal("nil BVH")
				}
			}
			b.ReportMetric(float64(tris.NumTris()), "tris")
		})
	}
}

// BenchmarkCinemaOrbitSink writes an 8-frame volume-rendered orbit
// database with the cinema verb's loop, on the synchronous writer and on
// the pipelined encode queue. (The name is the ledger's: the frames once
// reached the database through a filter sink.)
func BenchmarkCinemaOrbitSink(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			g := blobBenchGrid(b, 32)
			for i := 0; i < b.N; i++ {
				db, err := cinema.New(b.TempDir(), "bench orbit", "Volume Rendering")
				if err != nil {
					b.Fatal(err)
				}
				if mode == "async" {
					db.StartAsync(0, 0)
				}
				ex := viz.NewExec(par.Default())
				frame, err := harness.Frames(g, "Volume Rendering", 0, ex)
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < 8; f++ {
					cam, az := render.OrbitView(g.Bounds(), f, 8)
					if err := db.Add(f, az, frame(nil, cam, 128, 128, ex)); err != nil {
						b.Fatal(err)
					}
				}
				if err := db.Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
