package study_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/study"
)

func TestCheckClaimsAtMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("claim check skipped in -short mode")
	}
	c := (&harness.Config{
		Pool:          par.NewPool(2),
		Sizes:         []int{16, 64},
		PhaseSize:     64,
		Images:        30,
		ImageSize:     128,
		Particles:     512,
		ParticleSteps: 600,
		SimTime:       0.06,
		MaxSimSize:    64,
	}).Defaults()
	claims, err := c.CheckClaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 9 {
		t.Fatalf("claims = %d, want 9", len(claims))
	}
	byID := map[string]study.Claim{}
	for _, cl := range claims {
		byID[cl.ID] = cl
	}
	// The cap/class/IPC/miss/tradeoff claims must hold at this scale.
	for _, id := range []string{"contour-flat", "class-demand", "class-throttle", "ipc-divide", "miss-inversion", "tradeoff", "size-rising"} {
		cl := byID[id]
		if !cl.Applicable {
			t.Errorf("%s unexpectedly inapplicable", id)
		}
		if !cl.Pass {
			t.Errorf("claim %s failed: %s", id, cl.Detail)
		}
	}
	// The overflow claim needs a 192^3+ set: skipped here.
	if byID["size-falling"].Applicable {
		t.Error("size-falling should be inapplicable below the overflow size")
	}
	out := study.FormatClaims(claims)
	if !strings.Contains(out, "[PASS]") || !strings.Contains(out, "[SKIP]") {
		t.Errorf("formatting missing statuses:\n%s", out)
	}
	if !study.ClaimsAllPass(claims) {
		t.Error("applicable claims should all pass")
	}
}

func TestClaimsAllPassLogic(t *testing.T) {
	claims := []study.Claim{
		{ID: "a", Applicable: true, Pass: true},
		{ID: "b", Applicable: false, Pass: false}, // skipped: ignored
	}
	if !study.ClaimsAllPass(claims) {
		t.Error("skip counted as failure")
	}
	claims = append(claims, study.Claim{ID: "c", Applicable: true, Pass: false})
	if study.ClaimsAllPass(claims) {
		t.Error("failure not detected")
	}
}
