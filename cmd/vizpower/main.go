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
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/perfctr"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/telemetry"
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

// fill sets a knob the flags left unset, the way Config.Defaults does.
func fill(p *int, v int) {
	if *p == 0 {
		*p = v
	}
}

func parseFlags(cmd string, args []string) (*options, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	cfg := &harness.Config{}
	fs.Var((*intList)(&cfg.Sizes), "sizes", "comma-separated data-set sizes (default 32,64,128,256; quick: 16,32)")
	fs.Var((*count)(&cfg.PhaseSize), "phase-size", "data-set size for phases 1-2 (default 128; quick: 32)")
	fs.Var((*count)(&cfg.Images), "images", "ray tracing / volume rendering image count (default 50)")
	fs.Var((*count)(&cfg.ImageSize), "imgsize", "rendered image width/height (default 128)")
	fs.Var((*count)(&cfg.Particles), "particles", "particle advection seed count (default 1024)")
	fs.Var((*count)(&cfg.ParticleSteps), "steps", "particle advection step count (default 1000)")
	fs.Var((*count)(&cfg.Isovalues), "isovalues", "contour isovalues per cycle (default 10)")
	fs.Var((*intList)(&cfg.Ranks), "ranks", "comma-separated fabric sizes for distributed advection (advect, profile; default 1,2,4,8)")
	var (
		quick     = fs.Bool("quick", false, "shrink the study for a fast demonstration (small sizes and image counts)")
		progress  = fs.Bool("progress", false, "stream per-run progress to stderr")
		csv       = fs.Bool("csv", false, "emit figures as CSV instead of aligned text")
		out       = fs.String("out", "out", "output directory (fig1, all)")
		capW      = fs.Float64("cap", 65, "power cap in watts (trace)")
		budget    = fs.Float64("budget", 130, "node power budget in watts (allocate, serve; serve: 0 disables admission control)")
		addr      = fs.String("addr", "localhost:8080", "listen address (serve)")
		queue     = fs.Int("queue", 64, "admission queue depth before 429s (serve)")
		cycles    = fs.Int("cycles", 3, "in situ cycles (trace)")
		figRes    = fs.Int("figres", 256, "figure-1 rendering resolution")
		alg       = fs.String("alg", "Contour", "algorithm name (arch)")
		extended  = fs.Bool("extended", false, "include the extension filters (classify)")
		adaptive  = fs.Bool("adaptive", false, "advect with the adaptive BS23 integrator instead of fixed-step RK4 (advect)")
		backend   = fs.String("backend", "trad", "geometry kernel formulation for contour/threshold: trad or dpp")
		traceF    = fs.String("trace", "", "write a Chrome trace-event JSON of this run to FILE (load in Perfetto)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of this run to FILE")
		governF   = fs.Bool("govern", false, "all: add the closed-loop governor sweep; serve: calibrate admission from a governed run")
		decisions = fs.Bool("decisions", false, "govern: dump each budget's cap-decision flight recording")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *quick {
		if cfg.Sizes == nil {
			cfg.Sizes = []int{16, 32}
		}
		fill(&cfg.PhaseSize, 32)
		fill(&cfg.Images, 10)
		fill(&cfg.ImageSize, 64)
		fill(&cfg.Particles, 256)
		fill(&cfg.ParticleSteps, 300)
		cfg.SimTime = 0.05
		cfg.MaxSimSize = 32
	}
	b, err := viz.ParseBackend(*backend)
	if err != nil {
		return nil, err
	}
	cfg.Backend = b
	// distRanks marks an explicit -ranks request: profile then also runs
	// a distributed advection pass under the tracer at the largest size.
	distRanks := 0
	if cfg.Ranks != nil {
		distRanks = slices.Max(cfg.Ranks)
	}
	if *progress {
		cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  [progress]", line) }
	}
	// Sweep heartbeat: one line per executed (algorithm, size) cell so a
	// long campaign is observably alive. Tests construct Config directly
	// and stay quiet.
	cfg.Heartbeat = os.Stderr
	cfg.Defaults()
	return &options{
		cfg: cfg, csv: *csv, out: *out,
		capW: *capW, budget: *budget, cycles: *cycles, figSize: *figRes,
		alg: *alg, extended: *extended, adaptive: *adaptive, distRanks: distRanks,
		traceFile: *traceF, cpuprofile: *cpuprof,
		addr: *addr, queueDepth: *queue, govern: *governF, decisions: *decisions,
	}, nil
}

func run(args []string) (retErr error) {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd := args[0]
	opt, err := parseFlags(cmd, args[1:])
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
		// the pipeline track, pool chunk spans on the worker tracks —
		// plus request-lane tracks when the daemon is what's traced.
		var tr *telemetry.Tracer
		if cmd == "serve" {
			tr = telemetry.NewServing(c.Pool.Workers(), serve.Lanes)
		} else {
			tr = telemetry.New(c.Pool.Workers())
		}
		c.Pool.Instrument(tr)
		c.Tracer = tr
		defer func() {
			if err := writeTraceFile(opt.traceFile, tr); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}

	v := lookup(verbs, cmd)
	if v == nil {
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	if err := v.run(c, opt); err != nil {
		return err
	}
	// A cell that failed while others succeeded is skipped from the
	// output, not hidden.
	reportFailures(c)
	return nil
}

// verb is one vizpower command: dispatch and usage both read the verbs
// table, so a command cannot be runnable but undocumented.
type verb struct {
	name, summary string
	run           func(*harness.Config, *options) error
}

// verbs lists every command: one per harness artifact (printing it),
// then the hand-written ones. A hand-written verb replaces the generated
// one of the same name where the command takes flags of its own
// (classify -extended, govern -cycles -decisions).
var verbs = func() []verb {
	commands := []verb{
		{"classify", "demand power / IPC / miss rate / class per algorithm [-extended adds the extension filters]", classifyCmd},
		{"demand", "alias of classify", classifyCmd},
		{"govern", "closed-loop governor vs. static phase plan vs. uniform cap, with the energy attribution [-cycles N -decisions]", governCmd},
		{"fig1", "render the eight algorithm images (Figure 1) into -out [-figres N]",
			func(c *harness.Config, opt *options) error { return writeFig1(c, opt, opt.out) }},
		{"verify", "check the paper's executable claims; exit status 1 when one fails", verifyCmd},
		{"arch", "one algorithm across the modeled processor architectures [-alg NAME]", archCmd},
		{"advect", "distributed particle advection: rank sweep checked bit for bit against the single-rank run, with the migration breakdown [-ranks LIST -adaptive]", advectCmd},
		{"trace", "in situ power timeline under a cap (simulate+visualize) [-cap W -cycles N -csv]", traceCmd},
		{"profile", "execution telemetry: in situ cycles under a cap as a Perfetto-loadable trace.json plus a stage summary [-cap W -cycles N -out DIR -ranks LIST]", profileCmd},
		{"allocate", "split a node power budget between simulation and visualization [-budget W]", allocateCmd},
		{"feedback", "single-loop feedback capping toward an average-power target [-cap W -cycles N]", feedbackCmd},
		{"overprovision", "uniform vs. balanced per-node caps on an overprovisioned cluster [-alg NAME -budget W]", overprovisionCmd},
		{"export", "write the data set and every filter's output as legacy VTK files into -out", exportCmd},
		{"cinema", "render an orbit image database into -out [-alg \"Ray Tracing\"|\"Volume Rendering\"]", cinemaCmd},
		{"serve", "rendering daemon: frames, cinema segments and sweep cells over HTTP/JSON behind a power-budgeted admission queue [-addr HOST:PORT -budget W -queue N -out DIR -govern]", serveCmd},
		{"all", "regenerate every artifact, Figure 1 and report.md into -out [-govern adds the governor sweep]", allCmd},
	}
	var vs []verb
	for _, a := range harness.Artifacts {
		if lookup(commands, a.Name) == nil {
			vs = append(vs, verb{a.Name, a.Desc, func(c *harness.Config, opt *options) error { return printArtifact(a, c, opt) }})
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
		fmt.Print(harness.SeriesCSV("cap_watts", series))
	} else {
		fmt.Print(harness.FormatSeries(a.Title, "cap (W)", series))
	}
	return nil
}

func classifyCmd(c *harness.Config, opt *options) error {
	var runs []*harness.AlgoRun
	var err error
	if opt.extended {
		runs, err = c.RunAllExtended(c.PhaseSize)
	} else {
		runs, err = c.Phase2()
	}
	if err != nil {
		return err
	}
	fmt.Print(harness.DemandTable(runs))
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
	fmt.Print(harness.FormatClaims(claims))
	if !harness.ClaimsAllPass(claims) {
		return fmt.Errorf("reproduction claims failed")
	}
	return nil
}

func archCmd(c *harness.Config, opt *options) error {
	rows, err := c.CompareArchitectures(opt.alg, harness.Architectures())
	if err != nil {
		return err
	}
	fmt.Print(harness.ArchTable(opt.alg, rows))
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
		Tracer:      c.Tracer,
	})
	if opt.govern {
		// Calibrate admission from a short governed run: per-class
		// measured demand replaces the spec-TDP first-request guess.
		// A small pipeline suffices — the class demand, not the per-size
		// cost, is what seeds the estimate ladder.
		size := c.PhaseSize
		if size > 32 {
			size = 32
		}
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
		for _, class := range []core.Class{core.PowerOpportunity, core.PowerSensitive} {
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

// reportFailures prints the partial-sweep error report to stderr: failed
// cells are skipped, every other configuration's results still stand.
func reportFailures(c *harness.Config) {
	if fs := c.Failures(); len(fs) > 0 {
		fmt.Fprint(os.Stderr, "vizpower: sweep degraded — ", harness.FailureReport(fs))
	}
}

// cinemaCmd renders an orbit image database (the paper's 50-image-per-
// cycle product) for a rendering algorithm into -out.
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
	nodes, err := cluster.BuildNodes(g, f, nNodes, c.Spec, 0.08,
		func() *viz.Exec { return viz.NewExec(c.Pool) })
	if err != nil {
		return err
	}
	budget := opt.budget
	if budget < nNodes*c.Spec.MinCapWatts {
		budget = nNodes * 55
	}
	fmt.Printf("overprovisioned cluster: %d nodes, %s on z-slabs, +-8%% silicon variation,\n"+
		"machine-room budget %.0f W (%.0f W/node if uniform)\n\n", nNodes, f.Name(), budget, budget/nNodes)
	uni, err := cluster.UniformCaps(nodes, budget)
	if err != nil {
		return err
	}
	bal, err := cluster.BalancedCaps(nodes, budget)
	if err != nil {
		return err
	}
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
	g, err := power.NewIntegral(rapl.NewPackage(msr.NewFile(), c.Spec), popt)
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
	u, err := power.NewTable(rapl.NewPackage(msr.NewFile(), c.Spec), popt, nil)
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
// the phase size, for -cycles cycles (at least harness.GovernCycles).
func governCmd(c *harness.Config, opt *options) error {
	cycles := opt.cycles
	if cycles < harness.GovernCycles {
		cycles = harness.GovernCycles
	}
	res, err := c.GovernorCompare(c.PhaseSize, nil, cycles)
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

// traceCmd runs the in situ pipeline under a cap and prints the sampled
// power timeline.
func traceCmd(c *harness.Config, opt *options) error {
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters())
	if err != nil {
		return err
	}
	pkg := rapl.NewPackage(msr.NewFile(), c.Spec)
	if err := pkg.SetLimitWatts(opt.capW); err != nil {
		return err
	}
	samples, results, err := pipe.Trace(pkg, opt.cycles, 0.1)
	if err != nil {
		return err
	}
	if opt.csv {
		return perfctr.WriteCSV(os.Stdout, samples)
	}
	fmt.Printf("in situ trace: %d cycles under a %.0f W cap (%d segments, %d samples)\n",
		opt.cycles, opt.capW, len(results), len(samples))
	for i, r := range results {
		phase := "simulate "
		if i%2 == 1 {
			phase = "visualize"
		}
		fmt.Printf("  segment %2d %s  T=%8.3fs  f=%.2fGHz  P=%6.2fW  E=%8.1fJ\n",
			i, phase, r.TimeSec, r.FreqGHz, r.PowerWatts, r.EnergyJ)
	}
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s\n", "t(s)", "P(W)", "f(GHz)", "IPC", "LLCmiss")
	for _, s := range samples {
		fmt.Printf("%-10.2f %-10.2f %-10.2f %-10.2f %-10.3f\n",
			s.TimeSec, s.PowerW, s.EffFreqGHz, s.IPC, s.LLCMissRate)
	}
	return nil
}

// profileCmd is the telemetry entry point: run -cycles in situ cycles
// under the -cap RAPL limit with the tracer attached to both the
// pipeline (stage spans) and the worker pool (launch and chunk spans),
// then write a Perfetto-loadable trace.json and a plain-text stage
// summary into -out.
func profileCmd(c *harness.Config, opt *options) error {
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters())
	if err != nil {
		return err
	}
	tr := c.Tracer // reuse the -trace tracer if one is already attached
	if tr == nil {
		// With -ranks the distributed advection pass below puts its
		// advance/exchange spans on WorkerTrack(rank), so the tracer
		// needs tracks for whichever of (workers, ranks) is larger.
		tracks := c.Pool.Workers()
		if opt.distRanks > tracks {
			tracks = opt.distRanks
		}
		tr = telemetry.New(tracks)
		c.Pool.Instrument(tr)
		c.Tracer = tr
	}
	pipe.Tracer = tr
	pkg := rapl.NewPackage(msr.NewFile(), c.Spec)
	if err := pkg.SetLimitWatts(opt.capW); err != nil {
		return err
	}
	t0 := time.Now()
	samples, results, err := pipe.Trace(pkg, opt.cycles, 0.1)
	if err != nil {
		return err
	}
	wall := time.Since(t0)

	// An explicit -ranks also profiles the harness's distributed
	// advection cell on the rank fabric, so the trace carries per-rank
	// advance/exchange spans next to the pipeline stages.
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
	tracePath := filepath.Join(opt.out, "trace.json")
	if err := writeTraceFile(tracePath, tr); err != nil {
		return err
	}
	spans := tr.Spans()
	// The energy attribution joins the trace's self-time partition with
	// the meter timeline of the capped pipeline run — the distributed
	// advection pass above (unmetered) shows up as extra self time, not
	// extra joules.
	joules := obs.Attribute(telemetry.Summarize(spans), samples)
	summaryPath := filepath.Join(opt.out, "summary.txt")
	sf, err := os.Create(summaryPath)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSummary(sf, spans, 10, wall.Nanoseconds()); err != nil {
		sf.Close()
		return err
	}
	if len(joules) > 0 {
		fmt.Fprintf(sf, "\nwhere the joules went (%.0f W cap, %d meter samples):\n", opt.capW, len(samples))
		obs.WriteJoulesTable(sf, joules)
	}
	// Footer: span loss must be visible in the artifact, not only on
	// stderr — a truncated summary otherwise reads as a complete one.
	fmt.Fprintf(sf, "\nspans: %d recorded, %d dropped (bounded tracks)\n", len(spans), tr.Dropped())
	if err := sf.Close(); err != nil {
		return err
	}
	fmt.Printf("profiled %d in situ cycles (%d governed segments) under a %.0f W cap in %.3fs\n",
		opt.cycles, len(results), opt.capW, wall.Seconds())
	fmt.Println("wrote", summaryPath)
	if err := telemetry.WriteSummary(os.Stdout, spans, 5, wall.Nanoseconds()); err != nil {
		return err
	}
	if len(joules) > 0 {
		fmt.Println("\nwhere the joules went:")
		obs.WriteJoulesTable(os.Stdout, joules)
	}
	return nil
}

// writeTraceFile exports the tracer's spans as Chrome trace-event JSON
// and re-validates the written bytes, so a corrupt export fails the
// command instead of failing later inside Perfetto.
func writeTraceFile(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("trace export invalid: %w", err)
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "vizpower: trace buffers overflowed, %d spans dropped\n", d)
	}
	fmt.Printf("wrote %s (%d trace events, valid JSON; load at https://ui.perfetto.dev)\n", path, n)
	return nil
}

// allocateCmd splits a node budget between the simulation and each
// visualization algorithm, demonstrating the paper's proposed runtime.
func allocateCmd(c *harness.Config, opt *options) error {
	pipe, err := c.InSitu(c.PhaseSize/2, c.Filters()[:1])
	if err != nil {
		return err
	}
	cr, err := pipe.RunCycle()
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
		a, err := core.AllocateBudget(cr.SimExec, r.Exec, opt.budget)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %10.0f %10.0f %11.2fx %10s\n",
			r.Name, a.SimWatts, a.VizWatts, a.Speedup, a.VizClass)
	}
	return nil
}

// allCmd regenerates every artifact into the output directory.
func allCmd(c *harness.Config, opt *options) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		path := filepath.Join(opt.out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
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
	writeVTK := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(opt.out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := writeVTK("dataset.vtk", func(w io.Writer) error {
		return vtkio.WriteUniformGrid(w, g, "CloverLeaf-like energy field", "energy")
	}); err != nil {
		return err
	}
	for _, f := range c.ExtendedFilters() {
		ex := viz.NewExec(c.Pool)
		res, err := f.Run(g, ex)
		if err != nil {
			return err
		}
		slug := strings.ReplaceAll(strings.ToLower(f.Name()), " ", "_")
		switch {
		case res.Tris != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
				return vtkio.WriteTriMesh(w, res.Tris, f.Name()+" output", "energy")
			})
		case res.Cells != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
				return vtkio.WriteUnstructured(w, res.Cells, f.Name()+" output", "energy")
			})
		case res.Lines != nil:
			err = writeVTK(slug+".vtk", func(w io.Writer) error {
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

// usageText is the command list, generated from the verbs table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: vizpower <command> [flags]\ncommands:\n")
	for _, v := range verbs {
		fmt.Fprintf(&b, "  %-14s %s\n", v.name, v.summary)
	}
	b.WriteString(`run "vizpower <command> -h" for flags; add -quick for a fast demonstration
global: -trace FILE writes a Perfetto-loadable execution trace of any
command; -cpuprofile FILE writes a pprof CPU profile; -progress streams
per-run log lines to stderr; -backend trad|dpp selects the
contour/threshold formulation ("all" and "backends" compare both)
`)
	return b.String()
}

func usage() { fmt.Fprint(os.Stderr, usageText()) }
