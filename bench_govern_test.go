// Closed-loop governor benchmarks (recorded in BENCH_PR9.json): the
// telemetry-driven governor against the static phase plan and the
// uniform cap on the same recorded work, per budget. The headline
// metrics are modeled cycle time and achieved average power — the
// equal-energy columns replay the recorded segments with the target
// lowered to the static plan's achieved average, so the governed time
// cannot be bought with extra energy.
package repro_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/par"
)

// governCycles matches the CLI floor: below six cycles the comparison
// mostly measures the governor's discovery transient.
const governCycles = 8

func benchGovernCompare(b *testing.B, n int, budget float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Fresh config per iteration: GovernorCompare caches per size.
		c := (&harness.Config{
			Pool:  par.Default(),
			Sizes: []int{n}, PhaseSize: n,
			MaxSimSize: n, SimTime: 0.05,
		}).Defaults()
		res, err := c.GovernorCompare(n, []float64{budget}, governCycles)
		if err != nil {
			b.Fatal(err)
		}
		r := res.Rows[0]
		if r.StaticErr != nil {
			b.Fatalf("no feasible static plan at %.0f W: %v", budget, r.StaticErr)
		}
		b.ReportMetric(r.Eq.TimeSec, "eq-s")
		b.ReportMetric(r.Eq.AvgPowerWatts, "eq-W")
		b.ReportMetric(r.Static.TimeSec, "static-s")
		b.ReportMetric(r.Static.AvgPowerWatts, "static-W")
		b.ReportMetric(r.Uniform.TimeSec, "uniform-s")
		b.ReportMetric(r.EqSpeedupVsStatic(), "x-static")
		b.ReportMetric(r.GovSpeedupVsUniform(), "x-uniform")
		b.ReportMetric(float64(r.Live.Reprograms), "reprograms")
	}
}

func BenchmarkGovernCompare32_55W(b *testing.B) { benchGovernCompare(b, 32, 55) }
func BenchmarkGovernCompare32_65W(b *testing.B) { benchGovernCompare(b, 32, 65) }
func BenchmarkGovernCompare32_75W(b *testing.B) { benchGovernCompare(b, 32, 75) }
func BenchmarkGovernCompare64_65W(b *testing.B) { benchGovernCompare(b, 64, 65) }
