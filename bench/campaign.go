package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/par"
)

// campaignArtifacts is what `vizpower all -govern` has to leave in its
// output directory.
var campaignArtifacts = func() []string {
	list := []string{"table1.txt", "table2.txt", "table3.txt", "classification.txt",
		"backends.txt", "govern.txt", "report.md", "energy.txt"}
	for _, fig := range []string{"fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5", "fig6"} {
		list = append(list, fig+".csv", fig+".svg")
	}
	for _, alg := range []string{"contour", "isovolume", "particle_advection", "ray_tracing",
		"slice", "spherical_clip", "threshold", "volume_rendering"} {
		list = append(list, filepath.Join("fig1", alg+".png"))
	}
	return list
}()

// buildVizpower compiles cmd/vizpower into dir, as a user would before a
// campaign.
func buildVizpower(dir string, i int) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("vizpower-%d", i)))
	if err != nil {
		return "", 0, err
	}
	t := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vizpower")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/vizpower: %v\n%s", err, msg)
	}
	return bin, time.Since(t), nil
}

// campaignPass runs the study once in a fresh process and checks what it
// left behind. It returns the wall time and the child's peak resident
// set in MB.
func campaignPass(sc scale, bin, outDir string) (time.Duration, float64, error) {
	if err := os.RemoveAll(outDir); err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(bin, append(append([]string{"all"}, sc.campaign...), "-out", outDir)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t := time.Now()
	err := cmd.Run()
	d := time.Since(t)
	if err != nil {
		tail := stderr.String()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return d, 0, fmt.Errorf("vizpower all: %v: %s", err, tail)
	}
	rssMB := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	for _, name := range campaignArtifacts {
		if st, err := os.Stat(filepath.Join(outDir, name)); err != nil || st.Size() == 0 {
			return d, rssMB, fmt.Errorf("artifact %s is missing or empty", name)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "failures.txt")); err == nil {
		return d, rssMB, fmt.Errorf("the campaign wrote failures.txt")
	}
	report, err := os.ReadFile(filepath.Join(outDir, "report.md"))
	if err != nil {
		return d, rssMB, err
	}
	if bytes.Contains(report, []byte("[FAIL]")) {
		return d, rssMB, fmt.Errorf("report.md lists a failed claim")
	}
	return d, rssMB, nil
}

// runCampaign is the campaign workload: the study runner's real command
// in a fresh process per pass, because users pay process start, data-set
// builds and cold caches on every run. Set-up is building the binary.
func runCampaign(sc scale, seconds float64, tmp string, out *run) {
	var bin string
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		b, d, err := buildVizpower(tmp, i)
		if err != nil {
			out.fatal("campaign: %v", err)
			return
		}
		bin = b
		setups = append(setups, d.Seconds())
	}
	out.set("setup_s", median(setups), len(setups))

	outDir := filepath.Join(tmp, "campaign")
	if _, _, err := campaignPass(sc, bin, outDir); err != nil {
		out.fail("campaign: warm-up pass: %v", err)
	}
	var lat, rss []float64
	start := time.Now()
	for deadline := start.Add(time.Duration(seconds * float64(time.Second))); len(lat) == 0 || time.Now().Before(deadline); {
		d, rssMB, err := campaignPass(sc, bin, outDir)
		out.attempt()
		if err != nil {
			out.fail("campaign: pass %d: %v", len(lat), err)
		}
		lat = append(lat, ms(d))
		rss = append(rss, rssMB)
	}
	out.latencies(lat, time.Since(start).Seconds())
	out.set("rss_peak_mb", median(rss), len(rss))
}

// replayConfig is the configuration `vizpower all -quick -sizes ...`
// parses its flags into.
func replayConfig(sc scale, pool *par.Pool) *harness.Config {
	return (&harness.Config{
		Pool: pool, Sizes: sc.replaySizes, PhaseSize: sc.replaySizes[len(sc.replaySizes)-1],
		Images: 10, ImageSize: 64, Particles: 256, ParticleSteps: 300,
		SimTime: 0.05, MaxSimSize: 32,
	}).Defaults()
}

// replayCampaign makes, in this process, the calls cmd/vizpower's `all`
// makes into the harness, one span per call, and returns the total. Data
// sets are built up front so their cost is not folded into the first
// phase that happens to need them. File writes other than the Figure 1
// renders are left out: they are part of cmd.vizpower.unattributed_ms.
func replayCampaign(sc scale, tmp string, rec *recorder, op int, out *run) (time.Duration, map[string]time.Duration) {
	c := replayConfig(sc, par.Default())
	sizes := c.SortedSizes()
	spans := map[string]time.Duration{}
	root := rec.begin("campaign.replay", -1, op)
	t0 := time.Now()
	step := func(name string, fn func() error) {
		var err error
		spans[name] = rec.do(name, root, op, func() { err = fn() })
		if err != nil {
			out.fail("campaign replay: %s: %v", name, err)
		}
	}

	step("harness.dataset", func() error {
		for _, n := range sizes {
			if _, err := c.Dataset(n); err != nil {
				return err
			}
		}
		return nil
	})
	step("harness.phase1", func() error {
		run, err := c.Phase1()
		if err == nil && harness.Table1(run, c.Caps) == "" {
			err = fmt.Errorf("empty table")
		}
		return err
	})
	var runs2, runs3 []*harness.AlgoRun
	step("harness.phase2", func() (err error) {
		if runs2, err = c.Phase2(); err != nil {
			return err
		}
		if harness.Table2(runs2, c.Caps) == "" || harness.DemandTable(runs2) == "" {
			err = fmt.Errorf("empty table")
		}
		return err
	})
	bySize := map[string]map[int]*harness.AlgoRun{}
	step("harness.phase3", func() (err error) {
		if runs3, err = c.RunAll(sizes[len(sizes)-1]); err != nil {
			return err
		}
		for _, alg := range []string{"Slice", "Volume Rendering", "Particle Advection"} {
			if bySize[alg], err = c.RunsBySize(alg); err != nil {
				return err
			}
		}
		if harness.Table3(runs3, c.Caps) == "" {
			err = fmt.Errorf("empty table")
		}
		return err
	})
	step("harness.figures", func() error {
		figs := [][]harness.Series{
			harness.Fig2a(runs2, c.Caps), harness.Fig2b(runs2, c.Caps),
			harness.Fig2c(runs2, c.Caps), harness.Fig3(runs2, c.Caps),
		}
		for _, alg := range []string{"Slice", "Volume Rendering", "Particle Advection"} {
			figs = append(figs, harness.FigIPCBySize(bySize[alg], sizes, c.Caps))
		}
		for _, series := range figs {
			var svg strings.Builder
			if err := harness.WriteSVGFigure(&svg, "Figure", "y", series); err != nil {
				return err
			}
			if harness.SeriesCSV("cap_watts", series) == "" || svg.Len() == 0 {
				return fmt.Errorf("empty figure")
			}
		}
		return nil
	})
	step("harness.fig1", func() error {
		paths, err := c.RenderFig1(c.PhaseSize, sc.replayFigRes, filepath.Join(tmp, "replay-fig1"))
		if err == nil && len(paths) != 8 {
			err = fmt.Errorf("%d renders, want 8", len(paths))
		}
		return err
	})
	step("harness.advect_scaling", func() error {
		runs, err := c.AdvectScaling(c.PhaseSize)
		for _, r := range runs {
			if !r.Identical {
				return fmt.Errorf("%d-rank streamlines differ from the single-rank run", r.Ranks)
			}
		}
		return err
	})
	step("harness.backend_compare", func() error {
		pairs, err := c.BackendCompare(c.PhaseSize)
		if err == nil && harness.BackendTable(pairs) == "" {
			err = fmt.Errorf("empty table")
		}
		return err
	})
	step("harness.govern_compare", func() error {
		res, err := c.GovernorCompare(c.PhaseSize, []float64{55, 65, 75}, 6)
		if err == nil && harness.GovernTable(res) == "" {
			err = fmt.Errorf("empty table")
		}
		return err
	})
	var claims []harness.Claim
	step("harness.claims", func() (err error) {
		if claims, err = c.CheckClaims(); err == nil && !harness.ClaimsAllPass(claims) {
			err = fmt.Errorf("a claim failed:\n%s", harness.FormatClaims(claims))
		}
		return err
	})
	step("harness.report", func() error {
		var report strings.Builder
		if err := c.WriteReport(&report, runs2, runs3, claims); err != nil {
			return err
		}
		if report.Len() == 0 || harness.EnergyTable(runs2, c.Caps) == "" {
			return fmt.Errorf("empty report")
		}
		return nil
	})
	if fs := c.Failures(); len(fs) > 0 {
		out.fail("campaign replay: %s", harness.FailureReport(fs))
	}
	total := time.Since(t0)
	rec.end(root)
	return total, spans
}
