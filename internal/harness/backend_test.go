package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/study"
)

// Each backend pair holds the executed traditional cell and its DPP
// price: the run's own DPP profile, priced apart from its traditional
// profile. A repeat BackendCompare hands back the same cached runs.
func TestBackendRunsCachedPerFormulation(t *testing.T) {
	c := tinyConfig()
	pairs, err := c.BackendCompare(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d backend pairs, want 2 (contour, threshold)", len(pairs))
	}
	for _, p := range pairs {
		if p.Trad.DPP == (ops.Profile{}) || p.Trad.DPP == p.Trad.Profile {
			t.Errorf("%s: the run carries no DPP profile of its own", p.Trad.Name)
		}
		if p.DPP.Exec == p.Trad.Exec {
			t.Errorf("%s: the DPP price is the traditional price", p.Trad.Name)
		}
		if want := study.BackendPairs([]*study.Run{p.Trad}, c.Caps)[0].DPP; !reflect.DeepEqual(p.DPP, want) {
			t.Errorf("%s: the DPP price is not the run's DPP profile priced under the caps", p.Trad.Name)
		}
	}
	again, err := c.BackendCompare(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if again[i].Trad != pairs[i].Trad {
			t.Errorf("%s: BackendCompare re-executed a cached cell", pairs[i].Trad.Name)
		}
	}
}

// The report must gain the DPP backend section, with one classification
// per formulation, once both backends have run.
func TestReportHasBackendSection(t *testing.T) {
	c := tinyConfig()
	if _, err := c.BackendCompare(8); err != nil {
		t.Fatal(err)
	}
	runs, err := c.RunAll(8)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteReport(&b, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	rep := b.String()
	for _, want := range []string{"## DPP backend", "trad", "dpp"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(rep, "keeps the class") && !strings.Contains(rep, "CHANGES the class") {
		t.Error("report missing the per-algorithm class verdict")
	}
}

// The DPP half of a pair is a price, not a cell: once RunAll has run a
// size, BackendCompare executes nothing more (Config.Inject, consulted
// before every execution attempt, is never asked) and pairs the cached
// traditional runs with their DPP prices, the same runs and prices every
// call.
func TestBackendCompareExecutesNothingAfterRunAll(t *testing.T) {
	c := tinyConfig()
	if _, err := c.RunAll(8); err != nil {
		t.Fatal(err)
	}
	var asked []string
	c.Inject = func(name string, size, attempt int) error {
		asked = append(asked, name)
		return nil
	}
	pairs, err := c.BackendCompare(8)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.BackendCompare(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 0 {
		t.Errorf("BackendCompare executed %v after RunAll", asked)
	}
	if len(pairs) != 2 || len(again) != 2 {
		t.Fatalf("got %d and %d pairs, want 2 (contour, threshold)", len(pairs), len(again))
	}
	for i, p := range pairs {
		if again[i].Trad != p.Trad || !reflect.DeepEqual(again[i].DPP, p.DPP) {
			t.Errorf("%s: a repeat BackendCompare returned other runs or prices", p.Trad.Name)
		}
	}
}
