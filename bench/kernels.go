package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
	"repro/internal/viz/advect"
	"repro/internal/viz/clip"
	"repro/internal/viz/contour"
	"repro/internal/viz/isovolume"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/slice"
	"repro/internal/viz/threshold"
	"repro/internal/viz/volren"
)

// cell is one filter of a kernel round. twin names the cell whose output
// must be bit-identical (the traditional formulation of a DPP cell).
type cell struct {
	key  string
	f    viz.Filter
	twin string
}

// kernelSet is the ten cells of a round over one grid, plus the digest
// every later execution of a cell has to reproduce.
type kernelSet struct {
	g     *mesh.UniformGrid
	cells []cell
	ref   map[string]digest
}

// datasetConfig is the study configuration the in-process workloads
// build their data set from: a direct hydro run up to sc.simSize,
// trilinear resampling above it.
func datasetConfig(sc scale, pool *par.Pool) *harness.Config {
	return (&harness.Config{
		Pool: pool, Sizes: []int{sc.grid}, PhaseSize: sc.grid,
		Images: sc.images, ImageSize: sc.imageSize,
		Particles: sc.particles, ParticleSteps: sc.steps,
		MaxSimSize: sc.simSize, SimTime: 0.05,
	}).Defaults()
}

// newKernelSet draws the seeded filter options: the clip sphere, the
// slice planes, the isovolume and threshold ranges and the contour
// isovalues move by a few per cent of the domain or field range, so the
// inputs differ per seed while the amount of work stays comparable.
func newKernelSet(sc scale, g *mesh.UniformGrid, seed int64) *kernelSet {
	rng := rand.New(rand.NewSource(seed))
	jit := func(w float64) float64 { return (2*rng.Float64() - 1) * w }
	b := g.Bounds()
	c, size := b.Center(), b.Size()
	plo, phi := mesh.FieldRange(g.PointField("energy"))
	clo, chi := mesh.FieldRange(g.CellField("energy"))

	center := mesh.Vec3{c[0] + jit(0.04)*size[0], c[1] + jit(0.04)*size[1], c[2] + jit(0.04)*size[2]}
	radius := (0.30 + jit(0.015)) * b.Diagonal()
	var planes []slice.Plane
	for axis := 0; axis < 3; axis++ {
		p, n := c, mesh.Vec3{}
		p[axis] += jit(0.04) * size[axis]
		n[axis] = 1
		planes = append(planes, slice.Plane{Point: p, Normal: n})
	}
	isoLo := plo + (0.40+jit(0.02))*(phi-plo)
	isoHi := plo + (0.90+jit(0.02))*(phi-plo)
	thrLo := clo + (0.50+jit(0.02))*(chi-clo)
	isovalues := make([]float64, sc.isovalues)
	for i := range isovalues {
		isovalues[i] = plo + (float64(i+1)/float64(sc.isovalues+1)+jit(0.01))*(phi-plo)
	}

	return &kernelSet{g: g, ref: map[string]digest{}, cells: []cell{
		{key: "contour", f: contour.New(contour.Options{Field: "energy", Isovalues: isovalues})},
		{key: "clip", f: clip.New(clip.Options{Field: "energy", Center: center, Radius: radius})},
		{key: "isovolume", f: isovolume.New(isovolume.Options{Field: "energy", Lo: isoLo, Hi: isoHi})},
		{key: "threshold", f: threshold.New(threshold.Options{Field: "energy", Lo: thrLo, Hi: chi})},
		{key: "slice", f: slice.New(slice.Options{Field: "energy", Planes: planes})},
		{key: "raytrace", f: raytrace.New(raytrace.Options{Field: "energy", Images: sc.images, Width: sc.imageSize, Height: sc.imageSize})},
		{key: "advect", f: advect.New(advect.Options{Vector: "velocity", NumParticles: sc.particles, NumSteps: sc.steps})},
		{key: "volren", f: volren.New(volren.Options{Field: "energy", Images: sc.images, Width: sc.imageSize, Height: sc.imageSize})},
		{key: "contour-dpp", twin: "contour", f: contour.New(contour.Options{Field: "energy", Isovalues: isovalues, Backend: viz.DPP})},
		{key: "threshold-dpp", twin: "threshold", f: threshold.New(threshold.Options{Field: "energy", Lo: thrLo, Hi: chi, Backend: viz.DPP})},
	}}
}

// digestResult hashes everything a filter hands back: geometry, scalars
// and connectivity, or for the renderers (whose frames are discarded
// after accounting) the image and element counts.
func digestResult(r *viz.Result) digest {
	d := fnvOffset.word(uint64(r.Elements)).word(uint64(r.Images))
	vecs := func(d digest, v []mesh.Vec3) digest {
		d = d.word(uint64(len(v)))
		for _, p := range v {
			d = d.floats(p[:])
		}
		return d
	}
	if m := r.Tris; m != nil {
		d = vecs(d, m.Points).floats(m.Scalars).word(uint64(len(m.Tris)))
		for _, t := range m.Tris {
			d = d.int32s(t[:])
		}
	}
	if m := r.Cells; m != nil {
		d = vecs(d, m.Points).floats(m.Scalars).int32s(m.Offsets).int32s(m.Conn).word(uint64(len(m.Types)))
		for _, t := range m.Types {
			d = d.word(uint64(t))
		}
	}
	if m := r.Lines; m != nil {
		d = vecs(d, m.Points).floats(m.Scalars).int32s(m.Offsets)
	}
	return d
}

// roundResult is one round's timings and the study's own counters per
// cell, in cell order.
type roundResult struct {
	total    time.Duration
	perCell  []time.Duration
	profiles []ops.Profile
	err      error
}

// round runs every cell once on pool, timing only Filter.Run; digests
// are taken between the timed calls. The first execution of a cell fixes
// its digest, so rounds, worker counts and formulations are all compared
// against one reference.
func (ks *kernelSet) round(pool *par.Pool, rec *recorder, op int) roundResult {
	rr := roundResult{}
	root := rec.begin("kernels.round", -1, op)
	defer rec.end(root)
	for _, c := range ks.cells {
		var res *viz.Result
		var err error
		d := rec.do("viz."+c.key, root, op, func() { res, err = c.f.Run(ks.g, viz.NewExec(pool)) })
		rr.total += d
		rr.perCell = append(rr.perCell, d)
		if err != nil {
			rr.err = fmt.Errorf("%s: %w", c.key, err)
			rr.profiles = append(rr.profiles, ops.Profile{})
			continue
		}
		rr.profiles = append(rr.profiles, res.Profile)
		id := rec.begin("bench.digest", root, op)
		got := digestResult(res)
		rec.end(id)
		refKey := c.key
		if c.twin != "" {
			refKey = c.twin
		}
		if want, ok := ks.ref[refKey]; !ok {
			ks.ref[refKey] = got
		} else if got != want && rr.err == nil {
			rr.err = fmt.Errorf("%s: output digest %016x differs from the reference %016x (%d workers)", c.key, got, want, pool.Workers())
		}
	}
	return rr
}

// runKernels is the kernels workload: rounds of the ten cells on the
// default pool for the given time, after a one-worker round that fixes
// the digests and warm-up rounds that let the pool's scratch and the
// heap reach their steady size.
func runKernels(sc scale, seed int64, seconds float64, out *run) {
	pool := par.Default()
	var g *mesh.UniformGrid
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		t := time.Now()
		var err error
		if g, err = datasetConfig(sc, pool).Dataset(sc.grid); err != nil {
			out.fatal("kernels: data set: %v", err)
			return
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))

	ks := newKernelSet(sc, g, seed)
	single := par.NewPool(1)
	warm := ks.round(single, nil, 0)
	single.Close()
	if warm.err != nil {
		out.fail("kernels: one-worker round: %v", warm.err)
	}
	for i := 0; i < sc.warmRounds; i++ {
		if rr := ks.round(pool, nil, 0); rr.err != nil {
			out.fail("kernels: warm-up round: %v", rr.err)
		}
	}

	var lat []float64
	var busy time.Duration
	for deadline := time.Now().Add(time.Duration(seconds * float64(time.Second))); len(lat) == 0 || time.Now().Before(deadline); {
		rr := ks.round(pool, nil, len(lat))
		out.attempt()
		if rr.err != nil {
			out.fail("kernels: round %d: %v", len(lat), rr.err)
		}
		lat = append(lat, ms(rr.total))
		busy += rr.total
	}
	out.latencies(lat, busy.Seconds())
	out.set("rss_peak_mb", rssPeakMB(), 1)
}
