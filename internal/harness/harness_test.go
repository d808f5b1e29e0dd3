package harness

import (
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/study"
)

// tinyConfig returns a configuration small enough for unit tests while
// exercising every code path.
func tinyConfig() *Config {
	c := &Config{
		Pool:          par.NewPool(2),
		Sizes:         []int{8, 16},
		PhaseSize:     16,
		Images:        2,
		ImageSize:     16,
		Particles:     27,
		ParticleSteps: 60,
		Isovalues:     3,
		SimTime:       0.02,
		MaxSimSize:    16,
	}
	return c.Defaults()
}

func TestDefaultsMatchPaperMatrix(t *testing.T) {
	c := (&Config{}).Defaults()
	if got := c.TotalConfigurations(); got != 288 {
		t.Errorf("TotalConfigurations = %d, want 288 (9 caps x 8 algorithms x 4 sizes)", got)
	}
	if len(c.Caps) != 9 || c.Caps[0] != 120 || c.Caps[8] != 40 {
		t.Errorf("caps = %v", c.Caps)
	}
	if len(c.Filters()) != 8 {
		t.Errorf("filters = %d", len(c.Filters()))
	}
	if c.Images != 50 || c.Isovalues != 10 || c.Particles != 1024 {
		t.Errorf("paper workload defaults wrong: %+v", c)
	}
}

// A hydro run that maxSimSteps stops short of SimTime is an error that
// names the size, the cap, the time reached and the time asked for, not
// a data set from an earlier time.
func TestBuildDatasetFailsShortOfSimTime(t *testing.T) {
	c := tinyConfig()
	defer c.Pool.Close()
	c.SimTime = 1000
	g, err := c.Dataset(8)
	if err == nil {
		t.Fatalf("8^3 to t=1000 built a data set (%d cells) past the %d-step cap", g.NumCells(), maxSimSteps)
	}
	for _, want := range []string{"8^3", "t=", "400-step cap", "SimTime 1000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestFilterNamesMatchPaper(t *testing.T) {
	c := tinyConfig()
	want := []string{
		"Contour", "Spherical Clip", "Isovolume", "Threshold",
		"Slice", "Ray Tracing", "Particle Advection", "Volume Rendering",
	}
	got := c.filterNames()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("filter %d = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := c.FilterByName("Slice"); err != nil {
		t.Errorf("FilterByName(Slice): %v", err)
	}
	if _, err := c.FilterByName("Nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestDatasetCachingAndResampling(t *testing.T) {
	c := tinyConfig()
	g8, err := c.Dataset(8)
	if err != nil {
		t.Fatal(err)
	}
	g8b, err := c.Dataset(8)
	if err != nil {
		t.Fatal(err)
	}
	if g8 != g8b {
		t.Error("dataset not cached")
	}
	// 32 > MaxSimSize(16): resampled.
	g32, err := c.Dataset(32)
	if err != nil {
		t.Fatal(err)
	}
	if g32.NumCells() != 32*32*32 {
		t.Errorf("resampled cells = %d", g32.NumCells())
	}
	for _, f := range []string{"energy", "density", "pressure"} {
		if g32.CellField(f) == nil {
			t.Errorf("resampled dataset missing %q", f)
		}
	}
	if g32.PointVector("velocity") == nil {
		t.Error("resampled dataset missing velocity")
	}
}

func TestPhase1Structure(t *testing.T) {
	c := tinyConfig()
	run, err := c.Phase1()
	if err != nil {
		t.Fatal(err)
	}
	if run.Name != "Contour" || run.Size != 16 {
		t.Errorf("Phase1 ran %s at %d", run.Name, run.Size)
	}
	if len(run.ByCap) != len(c.Caps) {
		t.Fatalf("ByCap = %d entries", len(run.ByCap))
	}
	// Times must be monotone non-increasing as the cap rises (caps are
	// listed high -> low, so times non-decreasing down the list).
	for i := 1; i < len(run.ByCap); i++ {
		if run.ByCap[i].TimeSec < run.ByCap[i-1].TimeSec-1e-12 {
			t.Errorf("time decreased when cap dropped to %v", c.Caps[i])
		}
	}
	tbl := study.Table1(run, c.Caps)
	if !strings.Contains(tbl, "Table I") || !strings.Contains(tbl, "Pratio") {
		t.Errorf("Table1 malformed:\n%s", tbl)
	}
	if strings.Count(tbl, "\n") != 2+len(c.Caps) {
		t.Errorf("Table1 row count wrong:\n%s", tbl)
	}
}

func TestPhase2And3Structure(t *testing.T) {
	c := tinyConfig()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("Phase2 runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Size != c.PhaseSize {
			t.Errorf("%s ran at %d", r.Name, r.Size)
		}
		if r.Profile == (ops.Profile{}) {
			t.Errorf("%s has empty profile", r.Name)
		}
		if r.ByCap[0].TimeSec <= 0 {
			t.Errorf("%s base time = %v", r.Name, r.ByCap[0].TimeSec)
		}
	}
	tbl := study.Table2(runs, c.Caps)
	if !strings.Contains(tbl, "Volume Rendering") || !strings.Contains(tbl, "Fratio") {
		t.Errorf("Table2 missing rows:\n%s", tbl)
	}

	all, err := c.Phase3()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(c.Sizes) {
		t.Fatalf("Phase3 sizes = %d", len(all))
	}
	tbl3 := study.Table3(all[16], c.Caps)
	if !strings.Contains(tbl3, "Table III") {
		t.Errorf("Table3 malformed:\n%s", tbl3)
	}
}

func TestRunCaching(t *testing.T) {
	c := tinyConfig()
	f, _ := c.FilterByName("Threshold")
	r1, err := c.Run(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("run not cached")
	}
}

// TestPreloadRejectsWrongSize: a grid whose cells are not size^3 is not
// filed under size, so a run at that size builds its own data set
// instead of measuring the wrong grid under the wrong key.
func TestPreloadRejectsWrongSize(t *testing.T) {
	small, err := tinyConfig().Dataset(4)
	if err != nil {
		t.Fatal(err)
	}
	c := tinyConfig()
	if err := c.Preload(8, small); err == nil {
		t.Error("Preload filed a 4^3 grid under 8^3")
	}
	f, _ := c.FilterByName("Threshold")
	run, err := c.Run(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	if run.Size != 8 {
		t.Errorf("Run(Threshold, 8) measured a %d^3 grid", run.Size)
	}
}

func TestFiguresShape(t *testing.T) {
	c := tinyConfig()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	for name, fig := range map[string][]study.Series{
		"2a": study.Fig2a(runs, c.Caps),
		"2b": study.Fig2b(runs, c.Caps),
		"2c": study.Fig2c(runs, c.Caps),
	} {
		if len(fig) != 8 {
			t.Errorf("Fig%s series = %d, want 8", name, len(fig))
		}
		for _, s := range fig {
			if len(s.X) != len(c.Caps) || len(s.Y) != len(c.Caps) {
				t.Errorf("Fig%s series %s has %d points", name, s.Label, len(s.X))
			}
		}
	}
	f3 := study.Fig3(runs, c.Caps)
	if len(f3) != 5 {
		t.Errorf("Fig3 series = %d, want 5 cell-centered algorithms", len(f3))
	}
	for _, s := range f3 {
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("Fig3 %s rate[%d] = %v", s.Label, i, y)
			}
		}
	}

	bySize, err := c.RunsBySize("Slice")
	if err != nil {
		t.Fatal(err)
	}
	f4 := study.FigIPCBySize(bySize, c.SortedSizes(), c.Caps)
	if len(f4) != len(c.Sizes) {
		t.Errorf("Fig4 series = %d, want %d", len(f4), len(c.Sizes))
	}

	txt := study.FormatSeries("Fig 2a", "cap", study.Fig2a(runs, c.Caps))
	if !strings.Contains(txt, "Contour") {
		t.Errorf("FormatSeries missing labels:\n%s", txt)
	}
	csv := study.SeriesCSV("cap", f3)
	if !strings.HasPrefix(csv, "cap,") || strings.Count(csv, "\n") != 1+len(c.Caps) {
		t.Errorf("SeriesCSV malformed:\n%s", csv)
	}
	if study.FormatSeries("empty", "x", nil) == "" {
		t.Error("FormatSeries(nil) empty")
	}
}

func TestDemandTable(t *testing.T) {
	c := tinyConfig()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	tbl := study.DemandTable(runs)
	if !strings.Contains(tbl, "Demand(W)") || !strings.Contains(tbl, "Contour") {
		t.Errorf("DemandTable malformed:\n%s", tbl)
	}
}

// TestPaperShapesAt64 checks the paper's qualitative claims on a mid-size
// data set with realistic (scaled-down) workload knobs: the two
// power-sensitive algorithms demand more power than the opportunity
// class, and the opportunity class tolerates deeper caps before a 10%
// slowdown.
func TestPaperShapesAt64(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size shape check skipped in -short mode")
	}
	// The rendering workloads keep a paper-like scale (image count ×
	// resolution) so their per-pixel work dominates launch overhead the
	// way the real 50-image database does.
	c := (&Config{
		Pool:          par.NewPool(2),
		Sizes:         []int{64},
		PhaseSize:     64,
		Images:        30,
		ImageSize:     128,
		Particles:     512,
		ParticleSteps: 600,
		SimTime:       0.06,
		MaxSimSize:    64,
	}).Defaults()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*study.Run)
	for _, r := range runs {
		byName[r.Name] = r
	}
	demand := func(n string) float64 { return byName[n].Demand.PowerWatts }
	slow := func(n string) float64 {
		return byName[n].SlowT
	}

	// Power-sensitive demand exceeds every opportunity algorithm's.
	for _, hot := range []string{"Volume Rendering", "Particle Advection"} {
		for _, cold := range []string{"Contour", "Threshold", "Spherical Clip", "Isovolume"} {
			if demand(hot) <= demand(cold) {
				t.Errorf("%s demand %.1fW <= %s demand %.1fW",
					hot, demand(hot), cold, demand(cold))
			}
		}
	}
	// Sensitive algorithms hit 10% slowdown at a higher cap than
	// threshold/contour.
	for _, hot := range []string{"Volume Rendering", "Particle Advection"} {
		if slow(hot) < 60 {
			t.Errorf("%s first slowdown at %.0fW, want >= 60W", hot, slow(hot))
		}
		for _, cold := range []string{"Contour", "Threshold"} {
			if slow(hot) <= slow(cold) {
				t.Errorf("%s (%.0fW) should throttle before %s (%.0fW)",
					hot, slow(hot), cold, slow(cold))
			}
		}
	}
	// IPC divide (Fig. 2b): sensitive > 1, threshold < 1.
	if ipc := byName["Volume Rendering"].ByCap[0].IPC; ipc <= 1 {
		t.Errorf("volume rendering IPC = %.2f, want > 1", ipc)
	}
	if ipc := byName["Particle Advection"].ByCap[0].IPC; ipc <= 1 {
		t.Errorf("particle advection IPC = %.2f, want > 1", ipc)
	}
	if ipc := byName["Threshold"].ByCap[0].IPC; ipc >= 1 {
		t.Errorf("threshold IPC = %.2f, want < 1", ipc)
	}
	// Miss-rate inversion (Fig. 2c): isovolume high, volren low.
	if byName["Isovolume"].ByCap[0].LLCMissRate <= byName["Volume Rendering"].ByCap[0].LLCMissRate {
		t.Errorf("isovolume miss rate %.3f <= volume rendering %.3f",
			byName["Isovolume"].ByCap[0].LLCMissRate, byName["Volume Rendering"].ByCap[0].LLCMissRate)
	}
}

func TestWriteSVGFigure(t *testing.T) {
	c := tinyConfig()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := study.WriteSVGFigure(&buf, "Figure 2b", "IPC", study.Fig2b(runs, c.Caps)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "Volume Rendering") {
		t.Errorf("SVG figure malformed")
	}
	if strings.Count(out, "<polyline") != 8 {
		t.Errorf("polylines = %d, want 8", strings.Count(out, "<polyline"))
	}
}

func TestWriteReport(t *testing.T) {
	c := tinyConfig()
	runs, err := c.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	claims, err := c.CheckClaims()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := c.WriteReport(&buf, runs, runs, claims); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vizpower campaign report", "## Classification", "## Claim checks",
		"Table I", "Table II", "Table III", "Energy to solution",
		"| Volume Rendering |", "fig2b.csv",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
