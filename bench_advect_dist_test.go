// Benchmarks for the PR 6 distributed advection path: dist.Advect
// (parallelize-over-data on the rank fabric) against the single-rank
// integrator on a migration-heavy field. Results are recorded in
// BENCH_PR6.json.
package repro_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/advect"
)

// helixBenchGrid builds a rotating field with an oscillating z
// component, so particles cross slab boundaries in both directions and
// the distributed path pays real migration traffic (the swirl field of
// bench_advect_test.go barely moves in z). Cached across benchmarks.
var helixBenchGrids = map[int]*mesh.UniformGrid{}

func helixBenchGrid(b *testing.B, n int) *mesh.UniformGrid {
	b.Helper()
	if g, ok := helixBenchGrids[n]; ok {
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
			-(p[1] - 0.5),
			p[0] - 0.5,
			0.4 * math.Sin(8*math.Pi*p[0]),
		}
	}
	helixBenchGrids[n] = g
	return g
}

// BenchmarkAdvectDist advects 1024 particles for up to 1000 steps,
// fixed-step RK4 and adaptive BS23: the single-rank integrator (fast),
// then dist.Advect on 1/2/4/8 fabric ranks. Each rank advances its
// residents serially, so the dist numbers measure what the
// decomposition, migration, and termination machinery cost on top of —
// and recover through rank concurrency against — advect.Run.
// particle-steps/s counts emitted streamline vertices.
func BenchmarkAdvectDist(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := helixBenchGrid(b, n)
		for _, cfg := range []struct {
			name     string
			ranks    int // 0: single-rank advect.Run
			adaptive bool
		}{
			{"fast", 0, false},
			{"dist-1", 1, false},
			{"dist-2", 2, false},
			{"dist-4", 4, false},
			{"dist-8", 8, false},
			{"fast-adaptive", 0, true},
			{"dist-1-adaptive", 1, true},
			{"dist-2-adaptive", 2, true},
			{"dist-4-adaptive", 4, true},
			{"dist-8-adaptive", 8, true},
		} {
			f := advect.New(advect.Options{
				NumParticles: 1024, NumSteps: 1000, StepLength: 0.001,
				Adaptive: cfg.adaptive,
			})
			b.Run(fmt.Sprintf("%s-%d", cfg.name, n), func(b *testing.B) {
				ex := viz.NewExec(par.Default())
				var steps uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var lines *mesh.LineSet
					if cfg.ranks == 0 {
						res, err := f.Run(g, ex)
						if err != nil {
							b.Fatal(err)
						}
						lines = res.Lines
					} else {
						res, err := dist.Advect(g, f, cfg.ranks, dist.AdvectOptions{
							Deadline: 2 * time.Minute,
						})
						if err != nil {
							b.Fatal(err)
						}
						lines = res.Lines
					}
					steps += uint64(lines.TotalPoints())
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "particle-steps/s")
			})
		}
	}
}
