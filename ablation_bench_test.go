// Ablation benchmarks for design choices no ledger row sweeps:
// dynamic-chunk grain size in the parallel runtime, governor ladder
// granularity, the virtual-time sampling interval, and the rank count of
// the halo-exchanged hydro step. Each quantifies what the chosen default
// buys.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/perfctr"
	"repro/internal/rapl"
	"repro/internal/sim/clover"
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
