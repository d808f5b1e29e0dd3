package obs

import (
	"math"
	"strings"
	"testing"
)

func TestAttributeDistributesTotal(t *testing.T) {
	stats := []StageStat{
		{Name: "contour", Count: 4, SelfNs: 3_000_000_000},
		{Name: "render", Count: 4, SelfNs: 1_000_000_000},
	}
	rows := Attribute(stats, 100)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Stage != "contour" || math.Abs(rows[0].Joules-75) > 1e-9 {
		t.Fatalf("contour row = %+v, want 75 J", rows[0])
	}
	if rows[1].Stage != "render" || math.Abs(rows[1].Joules-25) > 1e-9 {
		t.Fatalf("render row = %+v, want 25 J", rows[1])
	}
	if math.Abs(rows[0].Share-0.75) > 1e-9 {
		t.Fatalf("share = %v, want 0.75", rows[0].Share)
	}
	// The invariant the acceptance criterion checks: attributed joules
	// sum to the measured total.
	if got := TotalJoules(rows); math.Abs(got-100) > 1e-9 {
		t.Fatalf("total = %v, want 100", got)
	}
}

func TestAttributeEdgeCases(t *testing.T) {
	if rows := Attribute(nil, 0); rows != nil {
		t.Fatalf("empty join = %v, want nil", rows)
	}
	rows := Attribute(nil, 10)
	if len(rows) != 1 || rows[0].Stage != "(untraced)" || rows[0].Joules != 10 {
		t.Fatalf("untraced row = %+v", rows)
	}
	// No joules: self time still reported, zero joules.
	rows = Attribute([]StageStat{{Name: "a", SelfNs: 1e9}}, 0)
	if len(rows) != 1 || rows[0].Joules != 0 || rows[0].SelfSec != 1 {
		t.Fatalf("no-sample row = %+v", rows)
	}
}

func TestMergeAttribution(t *testing.T) {
	phase1 := Attribute(
		[]StageStat{{Name: "contour", Count: 1, SelfNs: 1e9}},
		30)
	phase2 := Attribute(
		[]StageStat{
			{Name: "contour", Count: 1, SelfNs: 1e9},
			{Name: "render", Count: 1, SelfNs: 1e9},
		},
		70)
	merged := MergeAttribution(phase1, phase2)
	if len(merged) != 2 {
		t.Fatalf("merged rows = %d, want 2", len(merged))
	}
	if merged[0].Stage != "contour" || math.Abs(merged[0].Joules-65) > 1e-9 {
		t.Fatalf("contour = %+v, want 65 J", merged[0])
	}
	if math.Abs(TotalJoules(merged)-100) > 1e-9 {
		t.Fatalf("merged total = %v, want 100", TotalJoules(merged))
	}
	if math.Abs(merged[0].Share-0.65) > 1e-9 {
		t.Fatalf("share = %v, want 0.65", merged[0].Share)
	}
}

func TestWriteJoulesTable(t *testing.T) {
	rows := Attribute(
		[]StageStat{
			{Name: "volren", Count: 2, SelfNs: 2e9},
			{Name: "simulate", Count: 2, SelfNs: 6e9},
		},
		80)
	var sb strings.Builder
	WriteJoulesTable(&sb, rows)
	out := sb.String()
	for _, want := range []string{"stage", "simulate", "volren", "total", "60.00J", "20.00J", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// simulate (75%) must rank above volren (25%).
	if strings.Index(out, "simulate") > strings.Index(out, "volren") {
		t.Errorf("rows not sorted by joules:\n%s", out)
	}
}
