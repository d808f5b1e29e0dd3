// Benchmarks for the PR 4 advection hot path: the fused-sampler SoA
// integrator (Run), fixed-step and adaptive, at 32^3/64^3/128^3.
// BENCH_PR4.json records it against the reference integrator that has
// since become the test oracle (internal/viz/advect/reference_test.go).
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/advect"
)

// swirlBenchGrid builds a rotating-with-drift velocity field that keeps
// most particles inside the unit cube for the whole step budget, cached
// across benchmarks.
var swirlBenchGrids = map[int]*mesh.UniformGrid{}

func swirlBenchGrid(b *testing.B, n int) *mesh.UniformGrid {
	b.Helper()
	if g, ok := swirlBenchGrids[n]; ok {
		return g
	}
	g, err := mesh.NewCubeGrid(n)
	if err != nil {
		b.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		v[id] = mesh.Vec3{
			-(p[1] - 0.5) + 0.05*math.Sin(6*p[2]),
			(p[0] - 0.5) * (1 + 0.2*p[2]),
			0.03 * math.Cos(5*p[0]*p[1]),
		}
	}
	swirlBenchGrids[n] = g
	return g
}

// BenchmarkAdvectPaths advects 1024 particles for up to 1000 RK4 steps.
// particle-steps/s counts emitted streamline vertices per second, the
// paper's throughput unit for this algorithm.
func BenchmarkAdvectPaths(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, cfg := range []struct {
			name     string
			adaptive bool
		}{
			{"fast", false},
			{"fast-adaptive", true},
		} {
			b.Run(fmt.Sprintf("%s-%d", cfg.name, n), func(b *testing.B) {
				g := swirlBenchGrid(b, n)
				f := advect.New(advect.Options{
					NumParticles: 1024, NumSteps: 1000, StepLength: 0.001,
					Adaptive: cfg.adaptive,
				})
				ex := viz.NewExec(par.Default())
				var steps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := f.Run(g, ex)
					if err != nil {
						b.Fatal(err)
					}
					steps += uint64(res.Lines.TotalPoints())
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "particle-steps/s")
			})
		}
	}
}

// BenchmarkCloverSweep measures one x+y sweep pair of the hydro solver
// after the pencil buffers moved into the pool scratch store.
func BenchmarkCloverSweep(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			s, err := clover.New(n, clover.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pool := par.Default()
			dt := s.DT(s.MaxSignalSpeed(pool, nil))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SweepXY(dt, pool, nil)
			}
			b.ReportMetric(float64(s.NumCells())*2*float64(b.N)/b.Elapsed().Seconds(), "cell-sweeps/s")
		})
	}
}
