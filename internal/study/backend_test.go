package study

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ops"
)

// A run pairs only when it carries a DPP profile. Its DPP half is that
// profile priced under the same caps, apart from the traditional price,
// and BackendTable prints one row per formulation and the verdict.
func TestBackendPairsPriceTheDPPProfile(t *testing.T) {
	caps := []float64{120, 80, 40}
	var trad ops.Profile
	trad.Flops, trad.LoadBytes[ops.Stream], trad.Launches = 1e9, 8e9, 1
	dpp := trad
	dpp.StoreBytes[ops.Stream], dpp.Launches = 4e9, 3
	with := Price(&Cell{Name: "Contour", Size: 32, Profile: trad, DPP: dpp}, caps)
	without := Price(&Cell{Name: "Slice", Size: 32, Profile: trad}, caps)
	pairs := BackendPairs([]*Run{without, with}, caps)
	if len(pairs) != 1 || pairs[0].Trad != with {
		t.Fatalf("got %d pairs, want the one run with a DPP profile", len(pairs))
	}
	if want := price(Processor(), caps, dpp); !reflect.DeepEqual(pairs[0].DPP, want) {
		t.Error("the DPP half is not the run's DPP profile priced under the caps")
	}
	if reflect.DeepEqual(pairs[0].DPP, with.Priced) {
		t.Error("the DPP half is the traditional price")
	}
	lines := strings.Split(strings.TrimSpace(BackendTable(pairs)), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header, two rows and a verdict:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, want := range [][2]string{{"trad", "1"}, {"dpp", "3"}} {
		f := strings.Fields(lines[1+i])
		if f[0] != "Contour" || f[1] != "32^3" || f[2] != want[0] || f[6] != want[1] {
			t.Errorf("row %d = %q, want the %s row with %s launches", i+1, lines[1+i], want[0], want[1])
		}
	}
	if !strings.HasPrefix(lines[3], "Contour: DPP ") {
		t.Errorf("verdict line = %q", lines[3])
	}
}
