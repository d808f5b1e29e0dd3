package harness

import (
	"strings"
	"testing"

	"repro/internal/viz"
)

// Each backend pair holds two distinct runs, the executed traditional
// cell and its DPP price, recorded under their own backends, and a
// repeat BackendCompare hands back both from the cache.
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
		if p.Trad == p.DPP {
			t.Errorf("%s: traditional and DPP share one cached run", p.Name)
		}
		if p.Trad.Backend != viz.Traditional || p.DPP.Backend != viz.DPP {
			t.Errorf("%s: backends recorded as %v/%v", p.Name, p.Trad.Backend, p.DPP.Backend)
		}
		if p.Trad.Elements != p.DPP.Elements {
			t.Errorf("%s: element counts differ: %d vs %d", p.Name, p.Trad.Elements, p.DPP.Elements)
		}
	}
	again, err := c.BackendCompare(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if again[i].Trad != pairs[i].Trad || again[i].DPP != pairs[i].DPP {
			t.Errorf("%s: BackendCompare re-executed a cached cell", pairs[i].Name)
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
// traditional runs with their DPP prices, the same pointers every call.
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
		if p.DPP == nil || p.DPP != p.Trad.DPP || p.DPP.WallSec != 0 {
			t.Errorf("%s: the DPP run is not the traditional run's WallSec-0 price", p.Name)
		}
		if again[i].Trad != p.Trad || again[i].DPP != p.DPP {
			t.Errorf("%s: a repeat BackendCompare returned other runs", p.Name)
		}
	}
}
