// Command vizpower regenerates every table and figure of "Power and
// Performance Tradeoffs for Visualization Algorithms" (Labasan et al.,
// IPDPS 2019) on the simulated-Broadwell reproduction stack.
//
//	vizpower <command> [flags]
//
// Run vizpower without arguments for the command list: it is generated
// from the verbs table below, whose table and figure commands come from
// harness.Artifacts. `vizpower <command> -h` lists the flags.
package main

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cinema"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/perfctr"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/study"
	"repro/internal/viz"
	"repro/internal/vtkio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vizpower:", err)
		os.Exit(1)
	}
}

type options struct {
	cfg        *harness.Config
	csv        bool
	out        string
	capW       float64
	budget     float64
	cycles     int
	figSize    int
	alg        string
	extended   bool
	adaptive   bool
	distRanks  int
	traceFile  string
	cpuprofile string
	addr       string
	queueDepth int
	govern     bool
	decisions  bool
}

// count is a numeric flag laid over a Config knob: a non-negative
// integer, where 0 (like the field's zero value) asks for the default.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if n < 0 {
		return errors.New("must not be negative")
	}
	*c = count(n)
	return nil
}

// intList is a comma-separated list of positive integers laid over a
// Config slice (-sizes, -ranks); unset leaves the slice nil, the default.
type intList []int

func (l *intList) String() string { return fmt.Sprint([]int(*l)) }

func (l *intList) Set(s string) error {
	*l = nil
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad entry %q", f)
		}
		*l = append(*l, n)
	}
	return nil
}

// flagSet declares the verb's flags on opt: the ones every verb shares
// (the eight Config knobs, -quick, -progress, -trace and -cpuprofile),
// then the verb's own. finish applies -quick and -progress once the set
// is parsed.
func (v *verb) flagSet(opt *options) (fs *flag.FlagSet, finish func()) {
	fs = flag.NewFlagSet(v.name, flag.ContinueOnError)
	cfg := opt.cfg
	fs.Var((*intList)(&cfg.Sizes), "sizes", "comma-separated data-set sizes (default 32,64,128,256; quick: 16,32)")
	fs.Var((*count)(&cfg.PhaseSize), "phase-size", "data-set size for phases 1-2 (default 128; quick: 32)")
	fs.Var((*count)(&cfg.Images), "images", "ray tracing / volume rendering image count (default 50)")
	fs.Var((*count)(&cfg.ImageSize), "imgsize", "rendered image width/height (default 128)")
	fs.Var((*count)(&cfg.Particles), "particles", "particle advection seed count (default 1024)")
	fs.Var((*count)(&cfg.ParticleSteps), "steps", "particle advection step count (default 1000)")
	fs.Var((*count)(&cfg.Isovalues), "isovalues", "contour isovalues per cycle (default 10)")
	fs.Var((*intList)(&cfg.Ranks), "ranks", "comma-separated fabric sizes for distributed advection (default 1,2,4,8)")
	quick := fs.Bool("quick", false, "shrink the study for a fast demonstration (small sizes and image counts)")
	progress := fs.Bool("progress", false, "stream per-run progress to stderr")
	fs.StringVar(&opt.traceFile, "trace", "", "write a Chrome trace-event JSON of this run to FILE (load in Perfetto)")
	fs.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of this run to FILE")
	if v.flags != nil {
		v.flags(fs, opt)
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: vizpower %s [flags]\n%s\nflags:\n", v.name, v.summary)
		fs.PrintDefaults()
	}
	return fs, func() {
		if *quick {
			if cfg.Sizes == nil {
				cfg.Sizes = []int{16, 32}
			}
			// Fill only the knobs the flags left unset.
			cfg.PhaseSize = cmp.Or(cfg.PhaseSize, 32)
			cfg.Images = cmp.Or(cfg.Images, 10)
			cfg.ImageSize = cmp.Or(cfg.ImageSize, 64)
			cfg.Particles = cmp.Or(cfg.Particles, 256)
			cfg.ParticleSteps = cmp.Or(cfg.ParticleSteps, 300)
			cfg.SimTime = 0.05
			cfg.MaxSimSize = 32
		}
		// distRanks marks an explicit -ranks request: profile then also
		// runs a distributed advection pass under the tracer at the
		// largest size.
		if cfg.Ranks != nil {
			opt.distRanks = slices.Max(cfg.Ranks)
		}
		if *progress {
			cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  [progress]", line) }
		}
		// Sweep heartbeat: one line per executed (algorithm, size) cell so
		// a long campaign is observably alive. Tests construct Config
		// directly and stay quiet.
		cfg.Heartbeat = os.Stderr
		cfg.Defaults()
	}
}

// parse reads the verb's command line; -h prints the verb's flags and
// returns flag.ErrHelp.
func (v *verb) parse(args []string) (*options, error) {
	opt := &options{cfg: &harness.Config{}}
	fs, finish := v.flagSet(opt)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	finish()
	return opt, nil
}

func run(args []string) (retErr error) {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usageText())
		return fmt.Errorf("missing command")
	}
	cmd := args[0]
	v := lookup(verbs, cmd)
	if v == nil {
		fmt.Fprint(os.Stderr, usageText())
		return fmt.Errorf("unknown command %q", cmd)
	}
	opt, err := v.parse(args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return nil // asking for the flags is not a failure
	}
	if err != nil {
		return err
	}
	c := opt.cfg

	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	if opt.traceFile != "" {
		// One tracer across the whole invocation: harness cell spans on
		// the pipeline track, pool chunk spans on the worker tracks, rank
		// and request-lane spans on theirs.
		tr := attachTracer(c)
		defer func() {
			if err := writeTraceFile(opt.traceFile, tr); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}

	if err := v.run(c, opt); err != nil {
		return err
	}
	// A cell that failed while others succeeded is skipped from the
	// output, not hidden: the partial-sweep report goes to stderr.
	if fs := c.Failures(); len(fs) > 0 {
		fmt.Fprint(os.Stderr, "vizpower: sweep degraded — ", harness.FailureReport(fs))
	}
	return nil
}

// verb is one vizpower command: dispatch, the usage text and the verb's
// flag set all read the verbs table, so a command can neither run
// undocumented nor accept a flag it does not read.
type verb struct {
	name, summary string
	run           func(*harness.Config, *options) error
	flags         func(*flag.FlagSet, *options) // the verb's own flags; nil: none
}

// verbs lists every command: one per harness artifact (printing it),
// then the hand-written ones. A hand-written verb replaces the generated
// one of the same name (classify, govern).
var verbs = func() []verb {
	commands := []verb{
		{"classify", "demand power / IPC / miss rate / class per algorithm", classifyCmd, func(fs *flag.FlagSet, o *options) {
			fs.BoolVar(&o.extended, "extended", false, "add the extension filters (gradient, histogram)")
		}},
		{"govern", "closed-loop governor vs. static phase plan vs. uniform cap, with the energy attribution", governCmd, func(fs *flag.FlagSet, o *options) {
			fs.IntVar(&o.cycles, "cycles", harness.GovernCycles, "in situ cycles, recorded once and governed at every budget (at least 2)")
			fs.BoolVar(&o.decisions, "decisions", false, "print each budget's cap-decision flight recording")
		}},
		{"fig1", "render the eight algorithm images (Figure 1) into -out",
			func(c *harness.Config, opt *options) error { return writeFig1(c, opt, opt.out) }, func(fs *flag.FlagSet, o *options) {
				fs.StringVar(&o.out, "out", "out", "output directory")
				fs.IntVar(&o.figSize, "figres", 256, "Figure 1 image width/height")
			}},
		{"verify", "check the paper's executable claims; exit status 1 when one fails", verifyCmd, nil},
		{"arch", "one algorithm across the modeled processor architectures", archCmd, func(fs *flag.FlagSet, o *options) { fs.StringVar(&o.alg, "alg", "Contour", "algorithm name") }},
		{"advect", "distributed particle advection: rank sweep checked bit for bit against the single-rank run, with the migration breakdown", advectCmd, func(fs *flag.FlagSet, o *options) {
			fs.BoolVar(&o.adaptive, "adaptive", false, "integrate with adaptive BS23 instead of fixed-step RK4")
		}},
		{"trace", "in situ power timeline under a cap (simulate+visualize)", traceCmd, func(fs *flag.FlagSet, o *options) {
			fs.Float64Var(&o.capW, "cap", 65, "power cap in watts")
			fs.IntVar(&o.cycles, "cycles", 3, "in situ cycles (at least 1)")
			fs.BoolVar(&o.csv, "csv", false, "print the samples as CSV")
		}},
		{"profile", "execution telemetry: in situ cycles under a cap as a Perfetto-loadable trace.json plus a stage summary", profileCmd, func(fs *flag.FlagSet, o *options) {
			fs.Float64Var(&o.capW, "cap", 65, "power cap in watts")
			fs.IntVar(&o.cycles, "cycles", 3, "in situ cycles (at least 1)")
			fs.StringVar(&o.out, "out", "out", "output directory")
		}},
		{"allocate", "split a node power budget between simulation and visualization", allocateCmd, func(fs *flag.FlagSet, o *options) {
			fs.Float64Var(&o.budget, "budget", 130, "node power budget in watts")
		}},
		{"feedback", "single-loop feedback capping toward an average-power target", feedbackCmd, func(fs *flag.FlagSet, o *options) {
			fs.Float64Var(&o.capW, "cap", 65, "average-power target in watts")
			fs.IntVar(&o.cycles, "cycles", 3, "in situ cycles (at least 1)")
			fs.BoolVar(&o.csv, "csv", false, "print the samples as CSV")
		}},
		{"overprovision", "uniform vs. balanced per-node caps on an overprovisioned cluster", overprovisionCmd, func(fs *flag.FlagSet, o *options) {
			fs.StringVar(&o.alg, "alg", "Contour", "algorithm name")
			fs.Float64Var(&o.budget, "budget", 440, "machine-room power budget in watts (55 W per node)")
		}},
		{"export", "write the data set and every filter's output as legacy VTK files into -out", exportCmd, func(fs *flag.FlagSet, o *options) { fs.StringVar(&o.out, "out", "out", "output directory") }},
		{"cinema", "render an orbit image database into -out", cinemaCmd, func(fs *flag.FlagSet, o *options) {
			fs.StringVar(&o.alg, "alg", "Volume Rendering", `"Volume Rendering" or "Ray Tracing"`)
			fs.StringVar(&o.out, "out", "out", "output directory")
		}},
		{"serve", "rendering daemon: frames, cinema segments and sweep cells over HTTP/JSON behind a power-budgeted admission queue", serveCmd, func(fs *flag.FlagSet, o *options) {
			fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address")
			fs.Float64Var(&o.budget, "budget", 130, "node power budget in watts; 0 disables admission control")
			fs.IntVar(&o.queueDepth, "queue", 64, "admission queue depth before 429s")
			fs.StringVar(&o.out, "out", "out", "output directory")
			fs.BoolVar(&o.govern, "govern", false, "calibrate admission from a governed run")
		}},
		{"all", "regenerate every artifact, Figure 1 and report.md into -out", allCmd, func(fs *flag.FlagSet, o *options) {
			fs.StringVar(&o.out, "out", "out", "output directory")
			fs.IntVar(&o.figSize, "figres", 256, "Figure 1 image width/height")
			fs.BoolVar(&o.govern, "govern", false, "add the closed-loop governor sweep")
		}},
	}
	var vs []verb
	for _, a := range harness.Artifacts {
		if lookup(commands, a.Name) == nil {
			v := verb{a.Name, a.Desc, func(c *harness.Config, opt *options) error { return printArtifact(a, c, opt) }, nil}
			if a.Series != nil {
				v.flags = func(fs *flag.FlagSet, o *options) { fs.BoolVar(&o.csv, "csv", false, "print CSV") }
			}
			vs = append(vs, v)
		}
	}
	return append(vs, commands...)
}()

func lookup(vs []verb, name string) *verb {
	for i := range vs {
		if vs[i].name == name {
			return &vs[i]
		}
	}
	return nil
}

// printArtifact prints one harness artifact: a table as is, a figure as
// an aligned text table or (-csv) as CSV.
func printArtifact(a harness.Artifact, c *harness.Config, opt *options) error {
	if a.Series == nil {
		text, err := a.Text(c)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	series, err := a.Series(c)
	if err != nil {
		return err
	}
	if opt.csv {
		fmt.Print(study.SeriesCSV("cap_watts", series))
	} else {
		fmt.Print(study.FormatSeries(a.Title, "cap (W)", series))
	}
	return nil
}

func classifyCmd(c *harness.Config, opt *options) error {
	var runs []*study.Run
	var err error
	if opt.extended {
		runs, err = c.RunAllExtended(c.PhaseSize)
	} else {
		runs, err = c.Phase2()
	}
	if err != nil {
		return err
	}
	fmt.Print(study.DemandTable(runs))
	return nil
}

// writeFig1 renders the Figure 1 images into dir.
func writeFig1(c *harness.Config, opt *options, dir string) error {
	paths, err := c.RenderFig1(c.PhaseSize, opt.figSize, dir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Println("wrote", p)
	}
	return nil
}

func verifyCmd(c *harness.Config, opt *options) error {
	claims, err := c.CheckClaims()
	if err != nil {
		return err
	}
	fmt.Print(study.FormatClaims(claims))
	if !study.ClaimsAllPass(claims) {
		return fmt.Errorf("reproduction claims failed")
	}
	return nil
}

func archCmd(c *harness.Config, opt *options) error {
	rows, err := c.CompareArchitectures(opt.alg, study.Architectures())
	if err != nil {
		return err
	}
	fmt.Print(study.ArchTable(opt.alg, rows))
	return nil
}

// serveCmd runs the power-budgeted rendering daemon until interrupted,
// then drains in-flight requests and finalizes the open cinema databases.
func serveCmd(c *harness.Config, opt *options) error {
	srv := serve.New(serve.Options{
		Config:      c,
		BudgetWatts: opt.budget,
		QueueDepth:  opt.queueDepth,
		CinemaDir:   filepath.Join(opt.out, "serve-cinema"),
	})
	if opt.govern {
		// Calibrate admission from a short governed run: per-class
		// measured demand replaces the spec-TDP first-request guess.
		// A small pipeline suffices — the class demand, not the per-size
		// cost, is what seeds the estimate ladder.
		size := min(c.PhaseSize, 32)
		res, err := c.GovernorCompare(size, nil, 2)
		if err != nil {
			return fmt.Errorf("govern calibration: %w", err)
		}
		srv.SeedClassDemand(res.ClassDemand)
		// The calibration runs' flight recordings seed /debug/governor,
		// so the daemon exposes why the admission ladder looks the way
		// it does: one run per budget, each on its own clock from 0, its
		// decisions marked with its target.
		srv.SetGovernorLog(res.Decisions())
		fmt.Fprintf(os.Stderr, "vizpower serve: admission calibrated from a governed %d^3 run:", size)
		for _, class := range []metrics.Class{metrics.PowerOpportunity, metrics.PowerSensitive} {
			if w, ok := res.ClassDemand[class]; ok {
				fmt.Fprintf(os.Stderr, " %s %.1f W", class, w)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	hs := &http.Server{Addr: opt.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	if opt.budget > 0 {
		fmt.Fprintf(os.Stderr, "vizpower serve: listening on %s (budget %.0f W, queue %d)\n",
			opt.addr, opt.budget, opt.queueDepth)
	} else {
		fmt.Fprintf(os.Stderr, "vizpower serve: listening on %s (admission control off)\n", opt.addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		// Listener died on its own (bad address, port in use).
		srv.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "vizpower serve: %v — draining\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		// Stragglers past the drain window are cut off; the cinema
		// manifests below still cover every frame that completed.
		hs.Close()
	}
	return srv.Close()
}

// cinemaCmd renders an orbit image database (the paper's 50-image-per-
// cycle product) for a rendering algorithm into -out: volume rendering,
// the daemon's default too, unless -alg names another.
func cinemaCmd(c *harness.Config, opt *options) error {
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	// Prepare the frames before anything lands on disk or starts: a bad
	// -alg fails here with no directory created and no encode worker running.
	ex := viz.NewExec(c.Pool)
	frame, err := harness.Frames(g, opt.alg, 0, ex)
	if err != nil {
		return fmt.Errorf("cinema: -alg: %w", err)
	}
	db, err := cinema.New(opt.out, "vizpower orbit database", opt.alg)
	if err != nil {
		return err
	}
	// Pipeline PNG encoding off the render loop; Finalize drains the queue,
	// which owns each image until it is written — so a fresh one per frame.
	db.StartAsync(0, 0)
	for i := 0; i < c.Images; i++ {
		cam, az := render.OrbitView(g.Bounds(), i, c.Images)
		if err := db.Add(i, az, frame(nil, cam, c.ImageSize, c.ImageSize, ex)); err != nil {
			return errors.Join(err, db.Finalize())
		}
	}
	if err := db.Finalize(); err != nil {
		return err
	}
	fmt.Printf("wrote %d images + index.json to %s\n", db.Len(), opt.out)
	return nil
}

// overprovisionCmd reproduces the Section III-A machine-room argument: a
// slab-decomposed visualization job on an overprovisioned cluster, with
// manufacturing variation, under uniform versus balanced per-node caps.
func overprovisionCmd(c *harness.Config, opt *options) error {
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	f, err := c.FilterByName(opt.alg)
	if err != nil {
		return err
	}
	const nNodes = 8
	nodes, err := cluster.BuildNodes(g, f, nNodes, study.Processor(), 0.08,
		func() *viz.Exec { return viz.NewExec(c.Pool) })
	if err != nil {
		return err
	}
	budget := opt.budget
	// Balanced first: a budget below the node floors fails naming them.
	bal, err := cluster.BalancedCaps(nodes, budget)
	if err != nil {
		return err
	}
	uni, err := cluster.UniformCaps(nodes, budget)
	if err != nil {
		return err
	}
	fmt.Printf("overprovisioned cluster: %d nodes, %s on z-slabs, +-8%% silicon variation,\n"+
		"machine-room budget %.0f W (%.0f W/node if uniform)\n\n", nNodes, f.Name(), budget, budget/nNodes)
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "node", "uniform cap", "uniform T", "balanced cap", "balanced T")
	for i := range nodes {
		fmt.Printf("%-6d %11.0fW %11.4fs %11.0fW %11.4fs\n",
			i, uni.CapsWatts[i], uni.TimesSec[i], bal.CapsWatts[i], bal.TimesSec[i])
	}
	fmt.Printf("\nmakespan: uniform %.4fs, balanced %.4fs (%.2fx)\n",
		uni.MakespanSec, bal.MakespanSec, uni.MakespanSec/bal.MakespanSec)
	fmt.Printf("idle node-seconds: uniform %.4f, balanced %.4f\n", uni.IdleNodeSec, bal.IdleNodeSec)
	fmt.Printf("trapped capacity under uniform caps: %.1f W of %.0f W budget\n",
		cluster.TrappedCapacityWatts(nodes, uni, budget), budget)
	return nil
}

// feedbackCmd governs an in situ cycle sequence under the GEOPM-style
// integral policy and reports how it tracked the average-power target,
// against the uniform cap at that target replaying the same segments.
func feedbackCmd(c *harness.Config, opt *options) error {
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters()[:2])
	if err != nil {
		return err
	}
	popt := power.Options{TargetWatts: opt.capW}
	g, err := power.NewIntegral(rapl.NewPackage(msr.NewFile(), study.Processor()), popt)
	if err != nil {
		return err
	}
	res, err := g.Run(pipe, opt.cycles)
	if err != nil {
		return err
	}
	if opt.csv {
		return perfctr.WriteCSV(os.Stdout, res.Samples)
	}
	u, err := power.NewTable(rapl.NewPackage(msr.NewFile(), study.Processor()), popt, nil)
	if err != nil {
		return err
	}
	static, err := u.RunSegments(res.Segments)
	if err != nil {
		return err
	}
	fmt.Printf("feedback capping: %d segments, target average %.0f W\n", len(res.Segments), res.TargetWatts)
	fmt.Printf("achieved average %.2f W in %.4fs (static %.0f W cap: %.4fs, %.2fx slower)\n",
		res.AvgPowerWatts, res.TimeSec, res.TargetWatts, static.TimeSec, static.TimeSec/res.TimeSec)
	fmt.Printf("controller settled at a %.1f W limit\n", res.FinalCapWatts)
	return nil
}

// governCmd sweeps the phase-aware closed-loop governor against the
// static phase plan and the uniform cap on a live in situ pipeline at
// the phase size, for -cycles cycles (default harness.GovernCycles; fewer
// than 2 is an error).
func governCmd(c *harness.Config, opt *options) error {
	res, err := c.GovernorCompare(c.PhaseSize, nil, opt.cycles)
	if err != nil {
		return err
	}
	fmt.Print(harness.GovernTable(res))
	if len(res.Attribution) > 0 {
		fmt.Printf("\nwhere the joules went (live governed runs):\n")
		obs.WriteJoulesTable(os.Stdout, res.Attribution)
	}
	if opt.decisions {
		for _, row := range res.Rows {
			fmt.Printf("\ncap decisions at the %.0f W budget:\n", row.BudgetWatts)
			obs.WriteDecisionTable(os.Stdout, row.Live.Decisions, row.Live.DecisionsDropped)
		}
	}
	return nil
}

// advectCmd sweeps the distributed parallelize-over-data particle
// advection over the configured fabric sizes at the phase size, checks
// every gathered streamline set against the single-rank run bit for
// bit, and prints the Wang et al. (arXiv 2410.09710) migration
// breakdown. Both modes go through the cached harness cells; the study
// cells report.md renders are the fixed-step ones, like the paper's.
func advectCmd(c *harness.Config, opt *options) error {
	size := c.PhaseSize
	mode := "fixed-step RK4"
	if opt.adaptive {
		mode = "adaptive BS23"
	}
	runs, err := c.AdvectScalingMode(size, opt.adaptive)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("advect: no rank count in %v fits the %d z-layers of %d^3", c.Ranks, size, size)
	}
	fmt.Printf("distributed particle advection (parallelize-over-data) at %d^3\n", size)
	fmt.Printf("%d particles x %d steps, %s; oracle = single-rank shared-memory run\n", c.Particles, c.ParticleSteps, mode)
	fmt.Printf("oracle: %d particle steps in %.3fs\n\n", runs[0].ParticleSteps, runs[0].OracleWallSec)
	fmt.Printf("%-6s %-7s %-6s %-9s %-9s %-13s %-9s %-9s %-9s %s\n",
		"ranks", "rounds", "ghost", "wall(s)", "vs1rank", "participation", "migrated", "pingpong", "idle(ms)", "identical")
	for _, r := range runs {
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		fmt.Printf("%-6d %-7d %-6d %-9.3f %-9s %-13.2f %-9d %-9d %-9.1f %s\n",
			r.Ranks, r.Rounds, r.Ghost, r.WallSec,
			fmt.Sprintf("%.2fx", r.OracleWallSec/r.WallSec),
			r.Participation, r.Migrated, r.PingPong, float64(r.IdleNs)/1e6, ident)
	}
	if last := runs[len(runs)-1]; last.Ranks > 1 {
		fmt.Printf("\nper-rank breakdown at ranks=%d:\n", last.Ranks)
		fmt.Printf("%-5s %-8s %-10s %-8s %-8s %-8s %-9s %s\n",
			"rank", "seeded", "steps", "retired", "out", "in", "pingpong", "idle(ms)")
		for _, s := range last.Stats {
			fmt.Printf("%-5d %-8d %-10d %-8d %-8d %-8d %-9d %.1f\n",
				s.Rank, s.Seeded, s.Steps, s.Retired, s.MigratedOut, s.MigratedIn, s.PingPong, float64(s.IdleNs)/1e6)
		}
	}
	for _, r := range runs {
		if !r.Identical {
			return fmt.Errorf("advect: ranks=%d streamlines differ from the single-rank run", r.Ranks)
		}
	}
	return nil
}

// traceCmd governs the in situ rig under the one -cap limit and prints
// its phases and sampled power timeline.
func traceCmd(c *harness.Config, opt *options) error {
	res, err := cappedRun(c, opt)
	if err != nil {
		return err
	}
	if opt.csv {
		return perfctr.WriteCSV(os.Stdout, res.Samples)
	}
	fmt.Printf("in situ trace: %d cycles under a %.0f W cap (%d segments, %d samples)\n",
		opt.cycles, res.TargetWatts, len(res.Phases), len(res.Samples))
	for i, p := range res.Phases {
		fmt.Printf("  segment %2d %-9s  T=%8.3fs  f=%.2fGHz  P=%6.2fW  E=%8.1fJ\n",
			i, p.Label, p.TimeSec, p.EffFreqGHz, p.AvgPowerWatts, p.EnergyJ)
	}
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s\n", "t(s)", "P(W)", "f(GHz)", "IPC", "LLCmiss")
	for _, s := range res.Samples {
		fmt.Printf("%-10.2f %-10.2f %-10.2f %-10.2f %-10.3f\n",
			s.TimeSec, s.PowerW, s.EffFreqGHz, s.IPC, s.LLCMissRate)
	}
	if res.SamplesDropped > 0 {
		fmt.Printf("(%d older samples dropped)\n", res.SamplesDropped)
	}
	return nil
}

// cappedRun governs -cycles cycles of the in situ rig trace and profile
// meter — every filter at half the phase size — under the one -cap limit:
// the engine's uniform-cap policy, whose target rules name the cap floor
// and clamp to TDP. The run's TargetWatts is the cap its phases ran under.
func cappedRun(c *harness.Config, opt *options) (power.Result, error) {
	g, err := power.NewTable(rapl.NewPackage(msr.NewFile(), study.Processor()), power.Options{TargetWatts: opt.capW}, nil)
	if err != nil {
		return power.Result{}, err
	}
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters())
	if err != nil {
		return power.Result{}, err
	}
	pipe.Tracer = c.Tracer
	return g.Run(pipe, opt.cycles)
}

// profileCmd is the telemetry entry point: govern -cycles in situ cycles
// under the -cap limit with the tracer attached to both the pipeline
// (stage spans) and the worker pool (launch and chunk spans), then write
// a Perfetto-loadable trace.json and a plain-text stage summary into
// -out. The joules table is the run's per-phase join: each phase's
// metered joules split over that phase's span self time.
func profileCmd(c *harness.Config, opt *options) error {
	tr := c.Tracer // reuse the -trace tracer if one is already attached
	if tr == nil {
		tr = attachTracer(c)
	}
	t0 := time.Now()
	res, err := cappedRun(c, opt)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	joules := res.Attribute()

	// An explicit -ranks also profiles the harness's distributed
	// advection cell on the rank fabric, so the trace carries per-rank
	// advance/exchange spans next to the pipeline stages. It runs after
	// the metered phases: its spans add self time, not joules.
	if r := opt.distRanks; r > 1 {
		run, err := c.AdvectDist(c.PhaseSize, r)
		if err != nil {
			return err
		}
		fmt.Printf("profiled distributed advection on %d ranks: %d rounds, ghost %d, %.3fs\n",
			r, run.Rounds, run.Ghost, run.WallSec)
	}

	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	if err := writeTraceFile(filepath.Join(opt.out, "trace.json"), tr); err != nil {
		return err
	}
	spans := tr.Spans()
	fmt.Printf("profiled %d in situ cycles (%d governed segments) under a %.0f W cap in %.3fs\n",
		opt.cycles, len(res.Phases), res.TargetWatts, wall.Seconds())
	if err := writeFile(filepath.Join(opt.out, "summary.txt"), func(w io.Writer) error {
		if err := obs.WriteSummary(w, spans, 10, wall.Nanoseconds()); err != nil {
			return err
		}
		if len(joules) > 0 {
			fmt.Fprintf(w, "\nwhere the joules went (%.0f W cap, %.2f J metered):\n", res.TargetWatts, res.EnergyJ)
			obs.WriteJoulesTable(w, joules)
		}
		// Footer: span loss must be visible in the artifact, not only on
		// stderr — a truncated summary otherwise reads as a complete one.
		_, err := fmt.Fprintf(w, "\nspans: %d recorded, %d dropped (bounded tracks)\n", len(spans), tr.Dropped())
		return err
	}); err != nil {
		return err
	}
	if err := obs.WriteSummary(os.Stdout, spans, 5, wall.Nanoseconds()); err != nil {
		return err
	}
	if len(joules) > 0 {
		fmt.Println("\nwhere the joules went:")
		obs.WriteJoulesTable(os.Stdout, joules)
	}
	return nil
}

// attachTracer gives c and its pool one fresh tracer, the one every verb
// traces into.
func attachTracer(c *harness.Config) *obs.Tracer {
	tr := obs.NewTracer()
	c.Pool.Instrument(tr)
	c.Tracer = tr
	return tr
}

// writeTraceFile exports the tracer's spans as Chrome trace-event JSON
// and validates the bytes before writing them, so a corrupt export fails
// the command instead of failing later inside Perfetto.
func writeTraceFile(path string, tr *obs.Tracer) error {
	var data bytes.Buffer
	if err := tr.WriteChromeTrace(&data); err != nil {
		return err
	}
	n, err := obs.ValidateChromeTrace(data.Bytes())
	if err != nil {
		return fmt.Errorf("trace export invalid: %w", err)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "vizpower: trace buffers overflowed, %d spans dropped\n", d)
	}
	return writeFile(path, func(w io.Writer) error { _, err := data.WriteTo(w); return err },
		fmt.Sprintf("(%d trace events, valid JSON; load at https://ui.perfetto.dev)", n))
}

// writeFile creates path, has fill write its content and reports it on
// stdout as "wrote path", followed by the note if there is one.
func writeFile(path string, fill func(io.Writer) error, note ...any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(append([]any{"wrote", path}, note...)...)
	return nil
}

// allocateCmd splits a node budget between the simulation and each
// visualization algorithm, demonstrating the paper's proposed runtime.
func allocateCmd(c *harness.Config, opt *options) error {
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters()[:1])
	if err != nil {
		return err
	}
	segs, err := power.Record(pipe, 1)
	if err != nil {
		return err
	}
	fmt.Printf("budget %.0f W split between the simulation and each visualization algorithm\n", opt.budget)
	fmt.Printf("%-22s %10s %10s %12s %10s  %s\n", "Algorithm", "sim (W)", "viz (W)", "speedup", "class", "")
	runs, err := c.Phase2()
	if err != nil {
		return err
	}
	for _, r := range runs {
		a, err := core.AllocateBudget(segs[0].Exec, r.Exec, opt.budget)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %10.0f %10.0f %11.2fx %10s\n",
			r.Name, a.SimWatts, a.VizWatts, a.Speedup, r.Class)
	}
	return nil
}

// allCmd regenerates every artifact into the output directory.
func allCmd(c *harness.Config, opt *options) error {
	start := time.Now()
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return writeFile(filepath.Join(opt.out, name), func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	// One bad cell must cost its own artifacts, not the whole campaign:
	// each phase degrades independently and the failures land in the
	// report (and failures.txt) instead of aborting the sweep.
	skip := func(artifact string, err error) {
		fmt.Fprintf(os.Stderr, "vizpower: %s skipped: %v\n", artifact, err)
	}
	for _, a := range harness.Artifacts {
		if a.OnRequest && !opt.govern {
			continue
		}
		outs, err := a.Render(c)
		if err != nil {
			skip(a.Name, err)
			continue
		}
		for _, o := range outs {
			if err := write(o.File, o.Content); err != nil {
				return err
			}
		}
	}
	if err := writeFig1(c, opt, filepath.Join(opt.out, "fig1")); err != nil {
		return err
	}
	// The distributed-advection rank sweep feeds its own report section;
	// a wedged fabric degrades like any other phase.
	if _, err := c.AdvectScaling(c.PhaseSize); err != nil {
		skip("advect scaling", err)
	}
	// The self-contained campaign report: tables, classification, and
	// executable claim checks in one document. The claims need the full
	// Phase 2 set, so a degraded sweep skips them rather than aborting.
	claims, err := c.CheckClaims()
	if err != nil {
		if len(c.Failures()) == 0 {
			return err
		}
		skip("claim checks", err)
		claims = nil
	}
	// The report's tables come from the cells the loop above cached; what
	// a degraded sweep is missing was reported there.
	runs2, _ := c.Phase2()
	sizes := c.SortedSizes()
	runs3, _ := c.RunAll(sizes[len(sizes)-1])
	var report strings.Builder
	if err := c.WriteReport(&report, runs2, runs3, claims); err != nil {
		return err
	}
	if err := write("report.md", report.String()); err != nil {
		return err
	}
	if fs := c.Failures(); len(fs) > 0 {
		if err := write("failures.txt", harness.FailureReport(fs)); err != nil {
			return err
		}
	}
	return writeCost(c.Heartbeat, start)
}

// writeCost ends a campaign with its cost: the wall time since start and
// the process's peak resident set (getrusage; Linux reports Maxrss in
// KiB).
func writeCost(w io.Writer, start time.Time) error {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	fmt.Fprintf(w, "all done in %.2fs, peak RSS %.1f MB\n", time.Since(start).Seconds(), float64(ru.Maxrss)/1024)
	return nil
}

// exportCmd runs every filter at the phase size and writes the outputs as
// legacy VTK files (openable in ParaView/VisIt), plus the data set itself.
func exportCmd(c *harness.Config, opt *options) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(opt.out, "dataset.vtk"), func(w io.Writer) error {
		return vtkio.WriteUniformGrid(w, g, "CloverLeaf-like energy field", "energy")
	}); err != nil {
		return err
	}
	for _, f := range c.ExtendedFilters() {
		res, err := f.Run(g, viz.NewExec(c.Pool))
		if err != nil {
			return err
		}
		path := filepath.Join(opt.out, strings.ReplaceAll(strings.ToLower(f.Name()), " ", "_")+".vtk")
		switch {
		case res.Tris != nil:
			err = writeFile(path, func(w io.Writer) error {
				return vtkio.WriteTriMesh(w, res.Tris, f.Name()+" output", "energy")
			})
		case res.Cells != nil:
			err = writeFile(path, func(w io.Writer) error {
				return vtkio.WriteUnstructured(w, res.Cells, f.Name()+" output", "energy")
			})
		case res.Lines != nil:
			err = writeFile(path, func(w io.Writer) error {
				return vtkio.WriteLineSet(w, res.Lines, f.Name()+" output", "speed")
			})
		default:
			fmt.Printf("skipped %s (image/reduction output)\n", f.Name())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// usageText is the command list, generated from the verbs table: each
// verb with its own flags, then the flags every verb takes.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: vizpower <command> [flags]\ncommands:\n")
	for _, v := range verbs {
		if v.flags != nil {
			own := flag.NewFlagSet(v.name, flag.ContinueOnError)
			v.flags(own, &options{})
			var names []string
			own.VisitAll(func(f *flag.Flag) { names = append(names, "-"+f.Name) })
			v.summary += " [" + strings.Join(names, " ") + "]"
		}
		fmt.Fprintf(&b, "  %-14s %s\n", v.name, v.summary)
	}
	b.WriteString("every command also takes")
	fs, _ := (&verb{}).flagSet(&options{cfg: &harness.Config{}})
	fs.VisitAll(func(f *flag.Flag) { b.WriteString(" -" + f.Name) })
	b.WriteString("\nrun \"vizpower <command> -h\" for its flags; add -quick for a fast demonstration\n")
	return b.String()
}
