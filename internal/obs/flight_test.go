package obs_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/power"
	"repro/internal/rapl"
)

// The Governor's decision log is the flight recorder that obs.Decision
// and WriteDecisionTable render. These tests read it end to end, through
// a governed run of alternating hot and cold phases.

// governedDecisions governs cycles hot/cold pairs at 65 W and returns
// the decision log and its drop count.
func governedDecisions(t *testing.T, cycles int) ([]obs.Decision, int64) {
	t.Helper()
	g, err := power.New(rapl.NewPackage(msr.NewFile(), cpu.BroadwellEP()),
		power.Options{TargetWatts: 65, IntervalSec: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold ops.Profile
	hot.Flops = 8e9
	hot.LoadBytes[ops.Resident] = 16e9
	hot.WorkingSetBytes = 16 << 20
	hot.Launches = 2
	cold.Flops = 4e8
	cold.LoadBytes[ops.Stream] = 24e9
	cold.WorkingSetBytes = 140 << 20
	cold.Launches = 2
	h, c := cpu.Analyze(cpu.BroadwellEP(), hot, 0), cpu.Analyze(cpu.BroadwellEP(), cold, 0)
	segs := make([]power.Segment, 0, 2*cycles)
	for range cycles {
		segs = append(segs, power.Segment{Label: "hot", Exec: h}, power.Segment{Label: "cold", Exec: c})
	}
	res, err := g.RunSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	return res.Decisions, res.DecisionsDropped
}

// checkTimeOrder fails unless ds is oldest first.
func checkTimeOrder(t *testing.T, ds []obs.Decision) {
	t.Helper()
	for i := 1; i < len(ds); i++ {
		if ds[i].TimeSec < ds[i-1].TimeSec {
			t.Fatalf("decision %d at %.3f s precedes decision %d at %.3f s", i, ds[i].TimeSec, i-1, ds[i-1].TimeSec)
		}
	}
}

// TestFlightRecorderRing overflows the log: it holds its newest entries
// oldest first, counts the rest as dropped, and the table reports both.
func TestFlightRecorderRing(t *testing.T) {
	ds, dropped := governedDecisions(t, 100)
	if dropped == 0 {
		t.Fatalf("100 cycles dropped nothing from the log (%d held)", len(ds))
	}
	checkTimeOrder(t, ds)
	if ds[0].Reason == "init: program target as opening cap" {
		t.Error("a wrapped log still holds the opening decision")
	}
	// A governor decides online, so one more cycle appends decisions and
	// evicts as many of the oldest: the log shifts by that many.
	more, moreDropped := governedDecisions(t, 101)
	if len(more) != len(ds) {
		t.Fatalf("held %d then %d decisions; a full log keeps its size", len(ds), len(more))
	}
	shift := int(moreDropped - dropped)
	if shift <= 0 || shift >= len(ds) {
		t.Fatalf("one more cycle dropped %d more decisions", shift)
	}
	for i := range len(ds) - shift {
		if more[i] != ds[i+shift] {
			t.Fatalf("after one more cycle, entry %d = %+v, want %+v (newest kept, oldest first)", i, more[i], ds[i+shift])
		}
	}
	var sb strings.Builder
	obs.WriteDecisionTable(&sb, ds, dropped)
	if want := fmt.Sprintf("%d decisions (%d older decisions dropped from the ring)", len(ds), dropped); !strings.Contains(sb.String(), want) {
		t.Errorf("table does not end with %q", want)
	}
}

// TestFlightRecorderUnwrapped keeps a short run's every decision, in
// order, from the opening one on.
func TestFlightRecorderUnwrapped(t *testing.T) {
	ds, dropped := governedDecisions(t, 10)
	if dropped != 0 || len(ds) == 0 {
		t.Fatalf("held %d decisions, dropped %d", len(ds), dropped)
	}
	if ds[0].Reason != "init: program target as opening cap" {
		t.Errorf("first decision reason = %q", ds[0].Reason)
	}
	checkTimeOrder(t, ds)
	longer, longerDropped := governedDecisions(t, 20)
	if longerDropped != 0 || len(longer) <= len(ds) {
		t.Fatalf("20 cycles held %d decisions, dropped %d", len(longer), longerDropped)
	}
	for i, d := range ds {
		if longer[i] != d {
			t.Fatalf("entry %d of a longer run = %+v, want %+v (nothing lost)", i, longer[i], d)
		}
	}
	var sb strings.Builder
	obs.WriteDecisionTable(&sb, ds, dropped)
	if out := sb.String(); !strings.Contains(out, fmt.Sprintf("%d decisions\n", len(ds))) || strings.Contains(out, "dropped") {
		t.Errorf("unwrapped table footer wrong:\n%s", out[max(0, len(out)-120):])
	}
}
