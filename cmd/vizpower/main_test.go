package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"table1", "-sizes", "x,y"}); err == nil {
		t.Error("bad -sizes accepted")
	}
	if err := run([]string{"arch", "-quick", "-alg", "Nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// A non-image -alg fails naming both accepted algorithms, before the
	// database directory exists or an encode worker is running.
	db := filepath.Join(t.TempDir(), "db")
	err := run([]string{"cinema", "-quick", "-alg", "Contour", "-out", db})
	if err == nil || !strings.Contains(err.Error(), `"Ray Tracing"`) || !strings.Contains(err.Error(), `"Volume Rendering"`) {
		t.Errorf("cinema -alg Contour: error %v, want one naming both image algorithms", err)
	}
	if _, statErr := os.Stat(db); !os.IsNotExist(statErr) {
		t.Errorf("rejected cinema -alg left %s behind (stat: %v)", db, statErr)
	}
	if err := run([]string{"advect", "-quick", "-ranks", "2,zero"}); err == nil {
		t.Error("bad -ranks accepted")
	}
	if err := run([]string{"advect", "-quick", "-ranks", "0"}); err == nil {
		t.Error("-ranks 0 accepted")
	}
}

// TestParseFlags: the numeric and list flags write the Config knobs
// directly; -quick fills only what they left unset, wherever it stands on
// the command line; a negative or non-positive entry is a flag error, not
// a silent default.
func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-images", "7", "-sizes", "8, 12", "-ranks", "2,4"},
		{"-ranks", "2,4", "-sizes", "8, 12", "-images", "7", "-quick"},
	} {
		opt, err := parseFlags("all", args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		c := opt.cfg
		if c.Images != 7 || !slices.Equal(c.Sizes, []int{8, 12}) || !slices.Equal(c.Ranks, []int{2, 4}) || opt.distRanks != 4 {
			t.Errorf("%v: explicit flags lost: images %d sizes %v ranks %v distRanks %d", args, c.Images, c.Sizes, c.Ranks, opt.distRanks)
		}
		if c.PhaseSize != 32 || c.ImageSize != 64 || c.Particles != 256 || c.ParticleSteps != 300 || c.MaxSimSize != 32 {
			t.Errorf("%v: quick preset not applied: %+v", args, c)
		}
	}
	opt, err := parseFlags("all", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := opt.cfg; c.Images != 50 || c.PhaseSize != 128 || len(c.Sizes) != 4 || len(c.Ranks) != 4 || opt.distRanks != 0 {
		t.Errorf("no flags: not the paper defaults: %+v (distRanks %d)", c, opt.distRanks)
	}
	for _, args := range [][]string{
		{"-images", "-1"}, {"-phase-size", "-32"}, {"-steps", "x"}, {"-sizes", "16,0"}, {"-sizes", ""}, {"-ranks", "-2"},
	} {
		if _, err := parseFlags("all", args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRunAdvectCommand: the distributed advection sweep runs at
// demonstration scale in both integrator modes without a mismatch (a
// non-identical cell is a command error).
func TestRunAdvectCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	for _, args := range [][]string{
		{"advect", "-quick", "-ranks", "1,2,4", "-particles", "64", "-steps", "80"},
		{"advect", "-quick", "-ranks", "2", "-adaptive", "-particles", "64", "-steps", "80"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestUsageListsEveryVerb: usage is generated from the verbs table, so
// every dispatchable command — each harness artifact included — is
// listed with its summary, and README.md carries that text verbatim.
func TestUsageListsEveryVerb(t *testing.T) {
	text := usageText()
	if readme, err := os.ReadFile("../../README.md"); err != nil || !strings.Contains(string(readme), text) {
		t.Errorf("README.md's command list is not the generated usage text (%v); regenerate it", err)
	}
	for _, v := range verbs {
		if v.summary == "" || !strings.Contains(text, "\n  "+v.name+" ") || !strings.Contains(text, v.summary) {
			t.Errorf("usage does not list %q with its summary", v.name)
		}
	}
	for _, a := range harness.Artifacts {
		if lookup(verbs, a.Name) == nil {
			t.Errorf("artifact %q has no command", a.Name)
		}
	}
}

// TestAllWritesEveryDeclaredArtifact: `all` writes every file the
// artifact table declares (the on-request ones under -govern), plus the
// Figure 1 renderings and the report, and nothing fails at this scale.
func TestAllWritesEveryDeclaredArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"all", "-quick", "-govern", "-figres", "64", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	want := []string{"report.md"}
	for _, a := range harness.Artifacts {
		want = append(want, a.Files()...)
	}
	for _, name := range want {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty: %v", name, err)
		}
	}
	if pngs, _ := filepath.Glob(filepath.Join(dir, "fig1", "*.png")); len(pngs) != len(harness.Fig1Names) {
		t.Errorf("fig1 holds %d renderings, want %d", len(pngs), len(harness.Fig1Names))
	}
	if _, err := os.Stat(filepath.Join(dir, "failures.txt")); err == nil {
		t.Error("a clean campaign wrote failures.txt")
	}
}

func TestRunQuickCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	// Fast text commands at demonstration scale.
	for _, args := range [][]string{
		{"table1", "-quick"},
		{"fig2a", "-quick", "-csv"},
		{"classify", "-quick", "-extended"},
		{"energy", "-quick"},
		{"verify", "-quick"}, // class claims SKIP at this scale, others must pass
		{"arch", "-quick", "-alg", "Threshold"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunExportWritesVTK(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"export", "-quick", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset.vtk", "contour.vtk", "threshold.vtk", "particle_advection.vtk"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestRunProfileWritesValidTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"profile", "-quick", "-cap", "80", "-cycles", "2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("profile wrote an invalid trace: %v", err)
	}
	// At least the metadata events plus spans for 2 cycles x 8 filters.
	if n < 20 {
		t.Errorf("trace has only %d events", n)
	}
	sum, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stage summary", "Contour", "par.For"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("summary.txt missing %q", want)
		}
	}
}

func TestRunGlobalTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "t1.json")
	prof := filepath.Join(dir, "t1.pprof")
	if err := run([]string{"table1", "-quick", "-trace", trace, "-cpuprofile", prof}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Errorf("-trace wrote an invalid trace: %v", err)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("-cpuprofile wrote nothing: %v", err)
	}
}

func TestRunCinemaWritesDatabase(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"cinema", "-quick", "-alg", "Ray Tracing", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("missing index.json: %v", err)
	}
}

// TestFeedbackClampsTargetAboveTDP: the feedback verb runs the integral
// policy under the engine's target rules, so a target no package can be
// programmed to is reported as the TDP it was clamped to (it used to
// print "settled at a 200.0 W limit" on a 120 W part).
func TestFeedbackClampsTargetAboveTDP(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run([]string{"feedback", "-quick", "-cap", "200"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"target average 120 W", "controller settled at a 120.0 W limit"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("feedback -cap 200 output lacks %q:\n%s", want, out)
		}
	}
	if err := run([]string{"feedback", "-quick", "-cap", "20"}); err == nil {
		t.Error("feedback accepted a target below the cap floor")
	}
}
