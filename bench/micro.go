package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/cinema"
	"repro/internal/dpp"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plot"
	"repro/internal/render"
	"repro/internal/sim/clover"
	"repro/internal/viz"
	"repro/internal/viz/clip"
)

// runtimeRows times the two runtime layers every kernel sits on: loop
// dispatch and reduction in par, the three primitives in dpp.
func runtimeRows(sc scale, pool *par.Pool, out *run) {
	d, n := micro(sc.microDur, func() { pool.For(pool.Workers(), 1, func(lo, hi, worker int) {}) })
	out.set("par.for_dispatch_ns", float64(d), n)

	vals := make([]float64, sc.microN)
	for i := range vals {
		vals[i] = float64(i%7) + 0.5
	}
	var sink float64
	d, n = micro(sc.microDur, func() {
		sink += par.Reduce(pool, len(vals), 0, func() float64 { return 0 },
			func(lo, hi int, acc float64) float64 {
				for _, v := range vals[lo:hi] {
					acc += v
				}
				return acc
			}, func(a, b float64) float64 { return a + b })
	})
	out.set("par.reduce_1m_us", usec(d), n)
	if sink == 0 {
		out.fatal("par.Reduce summed to zero")
	}

	in := make([]int32, sc.microN)
	flags := make([]int32, sc.microN)
	keys := make([]int32, sc.microN)
	for i := range in {
		in[i] = int32(i % 5)
		flags[i] = int32(i % 3 / 2)
		keys[i] = int32(i / 16)
	}
	scanned := make([]int32, sc.microN)
	d, n = micro(sc.microDur, func() { dpp.ScanExclusive(pool, in, scanned) })
	out.set("dpp.scan_1m_us", usec(d), n)
	d, n = micro(sc.microDur, func() { dpp.Compact(pool, flags, scanned) })
	out.set("dpp.compact_1m_us", usec(d), n)
	outKeys := make([]int32, sc.microN)
	d, n = micro(sc.microDur, func() { dpp.ReduceByKey(pool, keys, in, outKeys, scanned) })
	out.set("dpp.reduce_by_key_1m_us", usec(d), n)
}

// dataRows times the hydro proxy that makes every data set and the mesh
// operations between it and the kernels.
func dataRows(sc scale, g *mesh.UniformGrid, pool *par.Pool, out *run) {
	sim, err := clover.New(sc.stepSize, clover.Options{})
	if err != nil {
		out.fatal("data rows: %v", err)
		return
	}
	var stepMs []float64
	for sim.Time() < 0.05 && len(stepMs) < 400 {
		t := time.Now()
		sim.Step(pool, nil)
		stepMs = append(stepMs, ms(time.Since(t)))
	}
	out.set("sim.clover.step_ms", median(stepMs), len(stepMs))
	out.set("sim.clover.steps", float64(len(stepMs)), 1)
	var small *mesh.UniformGrid
	d, n := micro(sc.microDur, func() {
		if small, err = sim.Grid(); err != nil {
			panic(err) // a full-cube simulation always exports
		}
	})
	out.set("sim.clover.grid_ms", ms(d), n)

	d, n = micro(sc.microDur, func() {
		if _, err := small.CellToPoint("energy"); err != nil {
			panic(err) // the field was just exported
		}
	})
	out.set("mesh.cell_to_point_ms", ms(d), n)
	d, n = micro(sc.microDur, func() {
		if _, err := mesh.ResampleCube(small, sc.grid); err != nil {
			panic(err)
		}
	})
	out.set("mesh.resample_cube_ms", ms(d), n)

	// The clip output is the mesh the weld and external-face passes see
	// in the campaign's Figure 1 renders.
	res, err := clip.New(clip.Options{Field: "energy"}).Run(small, viz.NewExec(pool))
	if err != nil {
		out.fatal("data rows: clip: %v", err)
		return
	}
	var welded *mesh.UnstructuredMesh
	d, n = micro(sc.microDur, func() { welded = mesh.WeldPointsPool(res.Cells, 1e-9, pool) })
	out.set("mesh.weld_points_ms", ms(d), n)
	d, n = micro(sc.microDur, func() { mesh.ExternalFaces(welded) })
	out.set("mesh.external_faces_ms", ms(d), n)

	sampler, err := mesh.NewScalarSampler(g, "energy")
	if err != nil {
		out.fatal("data rows: sampler: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(1))
	probes := make([]mesh.Vec3, 1024)
	for i := range probes {
		probes[i] = mesh.Vec3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	var sum float64
	d, n = micro(sc.microDur, func() {
		for _, p := range probes {
			v, _ := sampler.Sample(p)
			sum += v
		}
	})
	out.set("mesh.sampler_probe_ns", float64(d)/float64(len(probes)), n)
	if sum == 0 {
		out.fatal("sampler returned only zeros")
	}
}

// outputRows times what turns results into files and scrapes: PNG
// encoding, the cinema database, the SVG plots and the metrics registry.
func outputRows(sc scale, tmp string, out *run) {
	im := render.NewImage(sc.imageSize, sc.imageSize)
	for i := range im.Pix {
		im.Pix[i] = render.CoolWarm(float64(i%251) / 250)
	}
	d, n := micro(sc.microDur, func() {
		if err := im.WritePNG(io.Discard); err != nil {
			panic(err) // encoding into memory cannot fail
		}
	})
	out.set("render.png_encode_us", usec(d), n)

	db, err := cinema.New(filepath.Join(tmp, "ledger-db"), "ledger", "Volume Rendering")
	if err != nil {
		out.fatal("output rows: %v", err)
		return
	}
	frame := 0
	d, n = micro(sc.microDur, func() {
		if err := db.Add(frame, 0, im); err != nil {
			panic(err)
		}
		frame++
	})
	out.set("cinema.add_frame_us", usec(d), n)
	if err := db.Finalize(); err != nil {
		out.fail("output rows: cinema: %v", err)
	}

	series := make([]plot.Series, 8)
	for i := range series {
		series[i] = plot.Series{Label: fmt.Sprint("series ", i), X: []float64{40, 50, 60, 70, 80, 90, 100, 110, 120}, Y: make([]float64, 9)}
		for j := range series[i].Y {
			series[i].Y[j] = float64(i+1) * float64(j+1)
		}
	}
	var buf bytes.Buffer
	d, n = micro(sc.microDur, func() {
		buf.Reset()
		if err := plot.WriteSVG(&buf, plot.Options{Title: "ledger", XLabel: "W", YLabel: "y"}, series); err != nil {
			panic(err)
		}
	})
	out.set("plot.svg_ms", ms(d), n)

	reg := obs.NewRegistry()
	counter := reg.Counter("bench_ops_total", "operations")
	for i := 0; i < 64; i++ {
		reg.Gauge("bench_gauge", "a gauge", obs.L("i", fmt.Sprint(i))).Set(float64(i))
	}
	d, n = micro(sc.microDur, func() { counter.Inc() })
	out.set("obs.counter_inc_ns", float64(d), n)
	d, n = micro(sc.microDur, func() {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			panic(err)
		}
	})
	out.set("obs.scrape_us", usec(d), n)
	if _, err := obs.ValidatePrometheus(buf.Bytes()); err != nil {
		out.fail("output rows: registry exposition: %v", err)
	}
}
