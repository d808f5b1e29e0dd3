// The 128^3 arms of the PR 8 backend comparison: the contour and
// threshold kernels under the traditional scratch-mesh formulation versus
// the DPP count/flag -> scan -> emit formulation. The ledger carries the
// pair at 64^3 (viz.contour-dpp.ms vs viz.contour.ms, and threshold's);
// 128^3 is the size ROADMAP item 2(a) has to beat and does not fit a
// ledger run. BENCH_HISTORY.json has PR 8's numbers at all three sizes.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/contour"
	"repro/internal/viz/threshold"
)

// benchBackends enumerates the two formulations under test.
var benchBackends = []viz.Backend{viz.Traditional, viz.DPP}

// dppGrid is the analytic 128^3 data set, built on first use: a radius
// point field (10 default isovalues contour to nested spheres) and the
// matching cell field (threshold's default range keeps the outer shell,
// about half the cells). Analytic so it builds in milliseconds, unlike the
// simulated hydro set.
var dppGrid *mesh.UniformGrid

func dppBenchGrid(b *testing.B) *mesh.UniformGrid {
	b.Helper()
	if dppGrid != nil {
		return dppGrid
	}
	g, err := mesh.NewCubeGrid(128)
	if err != nil {
		b.Fatal(err)
	}
	ctr := mesh.Vec3{0.5, 0.5, 0.5}
	pf := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		pf[id] = g.PointPosition(id).Sub(ctr).Norm()
	}
	cf := g.AddCellField("energy")
	for c := range cf {
		pts := g.CellPoints(c)
		var s float64
		for _, pid := range pts {
			s += pf[pid]
		}
		cf[c] = s / 8
	}
	dppGrid = g
	return g
}

// BenchmarkDPPContour runs the full 10-isovalue contour cycle on the
// analytic data set under each backend. cells/s counts input cells
// classified per second (the paper's throughput unit for cell-centered
// algorithms), aggregated over the 10 isovalues of a cycle.
func BenchmarkDPPContour(b *testing.B) {
	for _, bk := range benchBackends {
		b.Run(fmt.Sprintf("%s-128", bk), func(b *testing.B) {
			g := dppBenchGrid(b)
			f := contour.New(contour.Options{Backend: bk})
			ex := viz.NewExec(par.Default())
			var cells int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.Run(g, ex)
				if err != nil {
					b.Fatal(err)
				}
				cells += res.Elements * 10 // Elements is cells per isovalue pass
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkDPPThreshold runs the threshold kernel (upper half of the
// field range kept) under each backend.
func BenchmarkDPPThreshold(b *testing.B) {
	for _, bk := range benchBackends {
		b.Run(fmt.Sprintf("%s-128", bk), func(b *testing.B) {
			g := dppBenchGrid(b)
			f := threshold.New(threshold.Options{Backend: bk})
			ex := viz.NewExec(par.Default())
			var cells int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := f.Run(g, ex)
				if err != nil {
					b.Fatal(err)
				}
				cells += res.Elements
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
