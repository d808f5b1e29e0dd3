package power

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/perfctr"
)

// The "same numbers" gate for the engine refactor. testdata/engine.golden
// was written at commit 2c46a4d — before the tick loop, the meter and the
// result existed once — through the API that commit exported:
// RunSegments(mixedSegments(8)) at 55/65/75 W, the Warmed equal-energy
// replay of each, and RunFeedback(newRAPL(), segs, 65, 0, 0.01). Every
// total, PhaseReport field, obs.Decision and perfctr.Sample is recorded as
// float bits; segment replays carry zero live stats, so the runs are
// deterministic and the comparison is exact. Each phase line ends in the
// literal "0 0" that the phase's trace-window bounds read in every
// segment replay before the phase carried its stage summary instead.

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// dumpResult writes everything a governed run reports, one record a line.
func dumpResult(b *strings.Builder, name string, r Result) {
	fmt.Fprintf(b, "run %s\n", name)
	fmt.Fprintf(b, "total %s %s %s %s %s %d %d %d\n", bits(r.TargetWatts), bits(r.TimeSec), bits(r.EnergyJ),
		bits(r.AvgPowerWatts), bits(r.FinalCapWatts), r.Reprograms, r.SamplesDropped, r.DecisionsDropped)
	for _, p := range r.Phases {
		fmt.Fprintf(b, "phase %d %q %d %s %s %s %s %s %s %s %s %s %s %s %s %s %s %t %d 0 0\n",
			p.Cycle, p.Label, p.Class, bits(p.Score), bits(p.CapStartWatts), bits(p.CapEndWatts),
			bits(p.TimeSec), bits(p.EnergyJ), bits(p.AvgPowerWatts), bits(p.EffFreqGHz), bits(p.IPC),
			bits(p.LLCMissRate), bits(p.PoolIdleFrac), bits(p.StealFrac), bits(p.SelfTimeSec()), bits(p.WallSec),
			bits(p.DemandWatts), p.DemandIsFree, p.Ticks)
	}
	for _, d := range r.Decisions {
		fmt.Fprintf(b, "decision %s %d %q %q %s %s %s %s %s %s %q\n", bits(d.TimeSec), d.Cycle, d.Phase, d.Class,
			bits(d.Score), bits(d.FeedforwardW), bits(d.BankJ), bits(d.TrimW), bits(d.OldWatts), bits(d.NewWatts), d.Reason)
	}
	dumpSamples(b, r.Samples)
	for _, s := range r.Segments {
		fmt.Fprintf(b, "segment %q %v\n", s.Label, s.Exec.Instructions)
	}
}

func dumpSamples(b *strings.Builder, samples []perfctr.Sample) {
	for _, s := range samples {
		fmt.Fprintf(b, "sample %s %s %s %s %s %s %s\n", bits(s.TimeSec), bits(s.IntervalSec), bits(s.EnergyJ),
			bits(s.PowerW), bits(s.EffFreqGHz), bits(s.IPC), bits(s.LLCMissRate))
	}
}

// equalEnergyTarget is the fixture's stand-in for the harness's
// equal-energy target: the closed-form average of the uniform cap at
// target over segs, never above target nor below the floor.
func equalEnergyTarget(segs []Segment, target float64) float64 {
	tS, eS := closedForm(segs, func(string) float64 { return target })
	return min(max(eS/tS, segs[0].Exec.Spec.MinCapWatts), target)
}

func engineDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	segs := mixedSegments(8)
	for _, target := range []float64{55, 65, 75} {
		live := govern(t, segs, target)
		dumpResult(&b, fmt.Sprintf("governor/%.0f", target), live)

		g, err := New(newRAPL(), Options{TargetWatts: equalEnergyTarget(segs, target), IntervalSec: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		g.Warm(&live)
		replay, err := g.RunSegments(segs)
		if err != nil {
			t.Fatal(err)
		}
		dumpResult(&b, fmt.Sprintf("governor/%.0f/equal-energy", target), replay)
	}

	g, err := NewIntegral(newRAPL(), Options{TargetWatts: 65, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	// The parent reported the integrator's own value as the final cap; the
	// engine's Result reports the limit the register holds, which is that
	// value on the 1/8 W grid.
	raw := g.law.(*integral).capW
	if math.Abs(res.FinalCapWatts-raw) > 0.125 {
		t.Errorf("integral: reported final cap %.4f W is not the integrator's %.4f W on the register grid", res.FinalCapWatts, raw)
	}
	fmt.Fprintf(&b, "run feedback/65\ntotal %s %s %s %d\n", bits(res.TimeSec), bits(res.AvgPowerWatts), bits(raw), res.SamplesDropped)
	dumpSamples(&b, res.Samples)
	return b.String()
}

func TestGoldenEngine(t *testing.T) {
	want, err := os.ReadFile("testdata/engine.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(engineDump(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	run := ""
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "run ") {
			run = wantLines[i]
		}
		if got[i] != wantLines[i] {
			t.Fatalf("%s, line %d differs from the parent commit:\n got  %s\n want %s", run, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("dump has %d lines, the parent's has %d", len(got), len(wantLines))
	}
}
