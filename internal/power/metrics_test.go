package power

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func TestGovernorFlightRecorder(t *testing.T) {
	res := govern(t, mixedSegments(6), 65)
	if len(res.Decisions) == 0 {
		t.Fatal("governed run recorded no cap decisions")
	}
	// First decision is always the constructor's opening program.
	if res.Decisions[0].Reason != "init: program target as opening cap" {
		t.Errorf("first decision reason = %q", res.Decisions[0].Reason)
	}
	var boundaries, retunes int
	for i, d := range res.Decisions {
		switch d.Reason {
		case "boundary":
			boundaries++
		case "retune":
			retunes++
		}
		if d.NewWatts <= 0 {
			t.Errorf("decision %d has no new cap: %+v", i, d)
		}
		if i > 0 && d.TimeSec < res.Decisions[i-1].TimeSec {
			t.Errorf("decision %d out of time order", i)
		}
	}
	// 12 segments → 12 boundary decisions.
	if boundaries != 12 {
		t.Errorf("boundary decisions = %d, want 12", boundaries)
	}
	if retunes == 0 {
		t.Error("alternating workload produced no intra-phase retunes")
	}
	// Decisions carry the classification once the phases are learned.
	last := res.Decisions[len(res.Decisions)-1]
	if last.Class != metrics.PowerSensitive.String() && last.Class != metrics.PowerOpportunity.String() {
		t.Errorf("decision class = %q", last.Class)
	}
	if res.DecisionsDropped != 0 {
		t.Errorf("short run dropped %d decisions", res.DecisionsDropped)
	}
}

func TestGovernorDecisionRingBounded(t *testing.T) {
	g, err := New(newRAPL(), Options{TargetWatts: 65, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	g.keepDecisions(8)
	res, err := g.RunSegments(mixedSegments(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 8 {
		t.Fatalf("retained %d decisions, ring holds 8", len(res.Decisions))
	}
	if res.DecisionsDropped == 0 {
		t.Error("long run dropped nothing from an 8-slot ring")
	}
}

// TestGovernedAttributionSumsToTotal is the acceptance-criterion test:
// on a governed run of a real traced pipeline, the per-stage energy
// attribution must sum to within 1% of the measured total joules.
func TestGovernedAttributionSumsToTotal(t *testing.T) {
	pipe := newGovernedPipeline(t, 2)
	g, err := New(newRAPL(), Options{TargetWatts: 65})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(pipe, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Attribute()
	if len(rows) < 2 {
		t.Fatalf("attribution produced %d rows, want several stages: %+v", len(rows), rows)
	}
	got := obs.TotalJoules(rows)
	if math.Abs(got-res.EnergyJ) > 1e-9*res.EnergyJ {
		t.Errorf("attributed %.2f J, measured %.2f J (off by %.2f%%)",
			got, res.EnergyJ, 100*math.Abs(got-res.EnergyJ)/res.EnergyJ)
	}
	for _, r := range rows {
		if r.Stage == "(untraced)" {
			t.Errorf("traced run attributed %.2f J to (untraced)", r.Joules)
		}
		if r.Joules < 0 || r.Share < 0 || r.Share > 1 {
			t.Errorf("bad row %+v", r)
		}
	}
}

// TestGovernorSegmentAttributionUntraced pins the fallback: synthetic
// segments carry no stage summaries, so all joules land in "(untraced)"
// instead of vanishing.
func TestGovernorSegmentAttributionUntraced(t *testing.T) {
	res := govern(t, mixedSegments(2), 65)
	rows := res.Attribute()
	if len(rows) != 1 || rows[0].Stage != "(untraced)" {
		t.Fatalf("rows = %+v, want single (untraced)", rows)
	}
	if math.Abs(rows[0].Joules-res.EnergyJ) > 1e-9 {
		t.Errorf("untraced row %.2f J != measured %.2f J", rows[0].Joules, res.EnergyJ)
	}
}
