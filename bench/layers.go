package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/msr"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/perfctr"
	"repro/internal/power"
	"repro/internal/rapl"
	"repro/internal/render"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// micro calls fn in equal batches for about dur and returns the median
// time per call and the number of batches behind it.
func micro(dur time.Duration, fn func()) (perCall time.Duration, batches int) {
	t := time.Now()
	fn()
	once := time.Since(t)
	batch := 1
	if once < dur/20 {
		batch = int(dur / 20 / (once + 1))
	}
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < dur; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return time.Duration(median(per)), len(per)
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runLedger is the traced run. It measures every per-layer metric, the
// same way whichever workload was named: three parts re-run the
// workloads short with a span around every call this program makes into
// a layer, and the micro rows time single public functions. Only
// bench.trace_overhead_frac belongs to the named workload. Spans wrap
// whole calls (a dozen per second-long replay, three per request), so
// what they cost is far below this host's run-to-run noise and a traced
// minus an untraced run measures only that noise; the row is instead the
// spans the named part recorded times the recorder's measured cost per
// span, over the part's wall time.
func runLedger(sc scale, workload string, seed int64, tmp string, rec *recorder, out *run) {
	pool := par.Default()
	var spans int
	var wall time.Duration
	part := func(name string, fn func()) {
		n, t := rec.len(), time.Now()
		fn()
		if name == workload {
			spans, wall = rec.len()-n, time.Since(t)
		}
	}

	// The replay comes first, in a process as fresh as the command's own.
	var replayMs float64
	part("campaign", func() {
		out.attempt()
		total, calls := replayCampaign(sc, tmp, rec, 0, out)
		for name, d := range calls {
			out.set(name+"_ms", ms(d), 1)
		}
		replayMs = ms(total)
	})
	if len(sc.campaign) > 0 {
		unattributedRow(sc, tmp, replayMs, out)
	}

	g, err := datasetConfig(sc, pool).Dataset(sc.grid)
	if err != nil {
		out.fatal("ledger: data set: %v", err)
		return
	}
	part("kernels-64", func() { kernelRows(sc, newKernelSet(sc, g, seed), pool, rec, out) })
	structureRows(sc, g, pool, out)
	cellOverheadRow(sc, pool, out)
	pipelineRows(sc, pool, out)
	distRows(sc, pool, out)
	serveRows(sc, g, seed, tmp, part, rec, out)

	runtimeRows(sc, pool, out)
	dataRows(sc, g, pool, out)
	outputRows(sc, tmp, out)

	scratch := newRecorder()
	perSpan, _ := micro(sc.microDur, func() {
		scratch.end(scratch.begin("span", -1, 0))
		scratch.spans = scratch.spans[:0]
	})
	out.set("bench.trace_overhead_frac", float64(spans)*float64(perSpan)/float64(wall), spans)
	out.set("bench.span_coverage_frac", math.Min(rec.coverage("campaign.replay"), rec.coverage("kernels.round")), 2)
}

// kernelRows times the ten cells at the machine's worker count and on a
// one-worker pool — the plain single-threaded baseline — and reads the
// study's own operation counters for each. One- and two-worker rounds
// alternate, so both see the same warm heap.
func kernelRows(sc scale, ks *kernelSet, pool *par.Pool, rec *recorder, out *run) {
	single := par.NewPool(1)
	defer single.Close()
	if sc.warmRounds > 0 {
		ks.round(single, nil, 0)
		ks.round(pool, nil, 0)
	}
	oneMs := make([][]float64, len(ks.cells))
	cellMs := make([][]float64, len(ks.cells))
	var last roundResult
	for i := 0; i < sc.tracedRounds; i++ {
		one := ks.round(single, nil, i)
		out.attempt()
		last = ks.round(pool, rec, i)
		for _, rr := range []roundResult{one, last} {
			if rr.err != nil {
				out.fail("kernel rows: %v", rr.err)
			}
		}
		for c := range ks.cells {
			oneMs[c] = append(oneMs[c], ms(one.perCell[c]))
			cellMs[c] = append(cellMs[c], ms(last.perCell[c]))
		}
	}
	for i, c := range ks.cells {
		p := last.profiles[i]
		var moved uint64
		for j := range p.LoadBytes {
			moved += p.LoadBytes[j] + p.StoreBytes[j]
		}
		out.set("viz."+c.key+".ms", median(cellMs[i]), sc.tracedRounds)
		out.set("viz."+c.key+".speedup_2w", median(oneMs[i])/median(cellMs[i]), sc.tracedRounds)
		out.set("viz."+c.key+".ops", float64(p.Flops+p.IntOps+p.Branches), 1)
		out.set("viz."+c.key+".bytes", float64(moved), 1)
	}

	// The pool's own counters over one more round, on an instrumented
	// pool so the rows above stay free of the per-chunk clock reads.
	counted := par.NewPool(pool.Workers())
	counted.Instrument(nil)
	ks.round(counted, nil, 0)
	before := counted.Stats().Totals()
	t := time.Now()
	ks.round(counted, nil, 0)
	wall := time.Since(t)
	after := counted.Stats().Totals()
	counted.Close()
	out.set("par.tasks", float64(after.Tasks-before.Tasks), 1)
	out.set("par.steals", float64(after.Stolen-before.Stolen), 1)
	out.set("par.idle_frac", float64(after.IdleNs-before.IdleNs)/float64(int64(wall)*int64(pool.Workers())), 1)
}

// structureRows times the two derived structures the daemon caches and
// one frame through each.
func structureRows(sc scale, g *mesh.UniformGrid, pool *par.Pool, out *run) {
	ex := viz.NewExec(pool)
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
	tris, err := mesh.GridExternalFaces(g, "energy")
	if err != nil {
		out.fatal("structure rows: %v", err)
		return
	}
	d, n := micro(sc.microDur, func() { raytrace.BuildBVHWith(tris, pool) })
	out.set("viz.raytrace.bvh_build_ms", ms(d), n)
	scene := raytrace.NewSceneWith(tris, pool)
	var im *render.Image
	d, n = micro(sc.microDur, func() { im = scene.RenderInto(im, cam, sc.imageSize, sc.imageSize, ex) })
	out.set("viz.raytrace.frame_ms", ms(d), n)

	field := g.PointField("energy")
	lo, hi := mesh.FieldRange(field)
	tf := render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25}
	var r *volren.Renderer
	d, n = micro(sc.microDur, func() { r = volren.NewRenderer(g, field, tf, ex).Prepare() })
	out.set("viz.volren.prepare_ms", ms(d), n)
	d, n = micro(sc.microDur, func() { im = r.RenderImageInto(im, cam, sc.imageSize, sc.imageSize, ex) })
	out.set("viz.volren.frame_ms", ms(d), n)
}

// unattributedRow runs the real command once and subtracts the replay:
// what is left is process start, flag parsing and file writes.
func unattributedRow(sc scale, tmp string, replayMs float64, out *run) {
	bin, _, err := buildVizpower(tmp, 0)
	if err != nil {
		out.fatal("unattributed row: %v", err)
		return
	}
	out.attempt()
	d, _, err := campaignPass(sc, bin, filepath.Join(tmp, "campaign"))
	if err != nil {
		out.fail("unattributed row: %v", err)
	}
	out.set("cmd.vizpower.unattributed_ms", ms(d)-replayMs, 1)
}

// cellOverheadRow is what Config.Run adds to the bare filter: the
// processor-model analysis, nine cap evaluations and bookkeeping.
func cellOverheadRow(sc scale, pool *par.Pool, out *run) {
	base := replayConfig(sc, pool)
	size := base.PhaseSize
	g, err := base.Dataset(size)
	if err != nil {
		out.fatal("cell overhead row: %v", err)
		return
	}
	var over []float64
	for i := 0; i < 15; i++ {
		c := replayConfig(sc, pool)
		c.Preload(size, g)
		f, _ := c.FilterByName("Threshold") // a name from Filters() cannot be unknown
		t := time.Now()
		run, err := c.Run(f, size)
		d := time.Since(t)
		if err != nil {
			out.fatal("cell overhead row: %v", err)
			return
		}
		over = append(over, usec(d)-run.WallSec*1e6)
	}
	out.set("harness.cell_overhead_us", median(over), len(over))
}

// pipelineRows covers the in situ loop and everything that decides or
// models power: a bare pipeline, the same pipeline under the closed-loop
// governor, and the planner, model and register calls they make.
func pipelineRows(sc scale, pool *par.Pool, out *run) {
	spec := cpu.BroadwellEP()
	size := sc.replaySizes[len(sc.replaySizes)-1]
	const cycles = 6
	newPipe := func() *core.Pipeline {
		sim, err := clover.New(size, clover.Options{})
		if err != nil {
			panic(err) // the size is a constant of the benchmark
		}
		p, err := core.NewPipeline(sim, []viz.Filter{
			volren.New(volren.Options{Field: "energy", Images: 10, Width: 64, Height: 64}),
		}, 10, pool, spec)
		if err != nil {
			panic(err)
		}
		return p
	}

	bare := newPipe()
	var simMs, vizMs []float64
	var segs []cpu.Execution
	var simExec, vizExec cpu.Execution
	var simProfile ops.Profile
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		t := time.Now()
		s, err := bare.Simulate()
		simMs = append(simMs, ms(time.Since(t)))
		t = time.Now()
		v, err2 := bare.Visualize()
		vizMs = append(vizMs, ms(time.Since(t)))
		if err != nil || err2 != nil {
			out.fatal("pipeline rows: %v %v", err, err2)
			return
		}
		simExec, vizExec, simProfile = s.Exec, v.Exec, s.Profile
		segs = append(segs, s.Exec, v.Exec)
	}
	bareWall := time.Since(t0)
	out.set("core.simulate_ms", median(simMs), cycles)
	out.set("core.visualize_ms", median(vizMs), cycles)

	gov, err := power.New(rapl.NewPackage(msr.NewFile(), spec), power.Options{TargetWatts: 65})
	if err != nil {
		out.fatal("pipeline rows: %v", err)
		return
	}
	t0 = time.Now()
	res, err := gov.Run(newPipe(), cycles)
	govWall := time.Since(t0)
	if err != nil {
		out.fatal("pipeline rows: governed run: %v", err)
		return
	}
	out.set("power.governor.cycle_ms", ms(govWall)/cycles, cycles)
	out.set("power.governor.overhead_frac", float64(govWall)/float64(bareWall)-1, cycles)
	out.set("power.governor.reprograms", float64(res.Reprograms), 1)
	out.set("power.governor.decisions", float64(len(res.Decisions)), 1)

	d, n := micro(sc.microDur, func() {
		if _, err := core.PlanPhaseCaps(simExec, vizExec, 65); err != nil {
			panic(err) // 65 W is feasible for this pipeline by construction
		}
	})
	out.set("core.plan_phase_caps_us", usec(d), n)
	d, n = micro(sc.microDur, func() {
		if _, err := core.AllocateBudget(simExec, vizExec, 130); err != nil {
			panic(err)
		}
	})
	out.set("core.allocate_budget_us", usec(d), n)
	d, n = micro(sc.microDur, func() { cpu.Analyze(spec, simProfile, 0) })
	out.set("cpu.analyze_us", usec(d), n)
	d, n = micro(sc.microDur, func() { simExec.UnderCap(65) })
	out.set("cpu.under_cap_us", usec(d), n)
	pkg := rapl.NewPackage(msr.NewFile(), spec)
	w := 60.0
	d, n = micro(sc.microDur, func() {
		w = 130 - w
		if err := pkg.SetLimitWatts(w); err != nil {
			panic(err) // both limits are inside the spec's range
		}
	})
	out.set("rapl.set_limit_ns", float64(d), n)
	d, n = micro(sc.microDur, func() {
		if _, _, err := perfctr.Trace(rapl.NewPackage(msr.NewFile(), spec), segs, perfctr.DefaultInterval); err != nil {
			panic(err)
		}
	})
	out.set("perfctr.trace_ms", ms(d), n)
}

// distRows runs the distributed kernels on the rank fabric. With more
// ranks than cores the times are reported and scaling efficiency is not.
func distRows(sc scale, pool *par.Pool, out *run) {
	c := replayConfig(sc, pool)
	g, err := c.Dataset(c.PhaseSize)
	if err != nil {
		out.fatal("dist rows: %v", err)
		return
	}
	f := advect.New(advect.Options{Vector: "velocity", NumParticles: c.Particles, NumSteps: c.ParticleSteps})
	for _, ranks := range []int{1, 2, 4} {
		var res *dist.AdvectResult
		d, n := micro(sc.microDur, func() {
			if res, err = dist.Advect(g, f, ranks, dist.AdvectOptions{Deadline: time.Minute}); err != nil {
				panic(err) // a healthy in-process fabric does not abort
			}
		})
		out.set(fmt.Sprintf("dist.advect.r%d_ms", ranks), ms(d), n)
		if ranks == 4 {
			var migrated, pingpong int
			var idle int64
			for _, s := range res.Stats {
				migrated += s.MigratedOut
				pingpong += s.PingPong
				idle += s.IdleNs
			}
			out.set("dist.advect.migrated", float64(migrated), 1)
			out.set("dist.advect.pingpong", float64(pingpong), 1)
			out.set("dist.advect.idle_frac", float64(idle)/float64(int64(d)*int64(ranks)), 1)
		}
	}
	cam := render.OrbitCamera(g.Bounds(), 0.7, 0.35, 2.0)
	d, n := micro(sc.microDur, func() {
		if _, _, err := dist.VolumeRender(g, "energy", 2, cam, 64, 64, pool); err != nil {
			panic(err)
		}
	})
	out.set("dist.volren.r2_ms", ms(d), n)
}

// serveRows runs a short warm and a short churning segment against one
// daemon over the shared data set and reads the daemon's public stats
// and response headers. part brackets each segment under its workload's
// name.
func serveRows(sc scale, g *mesh.UniformGrid, seed int64, tmp string, part func(string, func()), rec *recorder, out *run) {
	d, err := startDaemon(sc, filepath.Join(tmp, "ledger-cinema"), g)
	if err != nil {
		out.fatal("serve rows: %v", err)
		return
	}
	chk := &checker{seen: map[string]digest{}}
	limit := func(started int) bool { return started < sc.tracedRequests }

	health := request{kind: "healthz", path: "/healthz"}
	res := drive(d, []func() request{func() request { return health }}, limit, chk, nil, newRun(out.decl))
	out.set("serve.http.overhead_us", median(res.latMs)*1e3, len(res.latMs))

	var warm, churn loadResult
	part("serve-warm", func() { warm = drive(d, generators(sc, false, seed), limit, chk, rec, out) })
	// 300 requests leave 15 beyond p95: the highest percentile with ten or more.
	out.set("serve.latency_p95_ms", quantile(warm.latMs, 0.95), len(warm.latMs))
	out.set("serve.admission.queue_wait_ms", mean(warm.queueWaitMs), len(warm.queueWaitMs))
	out.set("serve.render.joules_per_frame", median(warm.joules), len(warm.joules))

	before := d.s.Cache().Stats()
	part("serve-churn", func() { churn = drive(d, generators(sc, true, seed), limit, chk, rec, out) })
	cache := d.s.Cache().Stats()
	builds, hits := cache.Misses-before.Misses, cache.Hits-before.Hits
	out.set("serve.cache.builds", float64(builds), 1)
	out.set("serve.cache.hits", float64(hits), 1)
	out.set("serve.cache.hit_ratio", float64(hits)/float64(hits+builds+cache.Waits-before.Waits), 1)
	out.set("serve.cache.entries_end", float64(cache.Entries), 1)
	out.set("serve.cold_latency_p50_ms", median(churn.coldMs), len(churn.coldMs))
	out.set("serve.sweep.cell_ms", median(churn.byKind["sweep"]), len(churn.byKind["sweep"]))
	out.set("serve.cinema.segment_ms", median(churn.byKind["cinema"]), len(churn.byKind["cinema"]))
	out.set("serve.metrics.scrape_us", median(churn.byKind["metrics"])*1e3, len(churn.byKind["metrics"]))
	out.set("serve.stats.scrape_us", median(churn.byKind["stats"])*1e3, len(churn.byKind["stats"]))

	adm := d.s.Admission().Stats()
	out.set("serve.admission.queued", float64(adm.Queued), 1)
	out.set("serve.admission.rejected", float64(adm.Rejected), 1)
	out.set("serve.admission.avg_watts", adm.AvgWatts, 1)
	out.set("serve.admission.peak_watts", adm.PeakWatts, 1)
	if err := d.close(); err != nil {
		out.fail("serve rows: close: %v", err)
	}
}
