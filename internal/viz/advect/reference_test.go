package advect

import (
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// RunReference is the straightforward integrator kept as the
// correctness oracle for the compacted hot path (the same pattern as
// volren's and raytrace's reference_test.go): one pass over the seeds,
// each particle integrated start to finish by its own loop — no bursts,
// no compaction, no Advance — growing its own pts/spd slices with
// append, with its own spelling of the accounting formula. The golden
// tests hold Run bit-identical to this path — streamline points,
// speeds, and the full operation profile (modulo launch count). It
// probes through a mesh.VectorSampler, which the mesh tests hold bit
// for bit to the by-name definition of trilinear sampling
// (mesh/sample_oracle_test.go, mesh/sampler_walk_test.go), so the chain
// "by-name == sampler, Run == reference over the sampler" is what the
// original by-name integrator proved in one step.
//
// Cell crossings are counted by the true linearized cell id, not the
// original integrator's distance-from-origin bucket, which collided
// distinct cells at equal radius and undercounted crossings. Both paths
// share the fix so their profiles stay comparable.
func (f *Filter) RunReference(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	if g.PointVector(f.opts.Vector) == nil {
		return nil, missingVectorErr(f.opts.Vector)
	}
	starts := seeds(g.Bounds(), f.opts.NumParticles)
	return f.runReference(g, ex, starts), nil
}

// runReference integrates an explicit seed list (tests inject
// out-of-bounds seeds through this).
func (f *Filter) runReference(g *mesh.UniformGrid, ex *viz.Exec, starts []mesh.Vec3) *viz.Result {
	b := g.Bounds()
	h := f.opts.StepLength
	proto, err := mesh.NewVectorSampler(g, f.opts.Vector)
	if err != nil {
		panic(err) // callers check the field
	}

	type line struct {
		pts []mesh.Vec3
		spd []float64
	}
	lines := make([]line, len(starts))
	cellDiag := g.Spacing.Norm()
	profs := make([]ops.Profile, ex.Pool.Workers())
	// The same out-of-domain seed predicate as Run and dist.Advect.
	deadSeed := RejectSeeds(g, starts, nil)

	ex.Pool.For(len(starts), 0, func(lo, hi, worker int) {
		rec := &profs[worker]
		sv := *proto
		var samples, crossings, stepsTaken uint64
		for pi := lo; pi < hi; pi++ {
			p := starts[pi]
			if f.opts.Adaptive {
				if deadSeed[pi] {
					// Dead at the seed: the arc-length estimate still
					// charges one crossing.
					crossings++
					continue
				}
				apts, aspd, aSamples, aRejects := integrateAdaptive(
					&sv, b, p, f.opts.Tolerance, h,
					float64(f.opts.NumSteps)*h, f.opts.NumSteps)
				samples += aSamples
				arc := 0.0
				for i := 1; i < len(apts); i++ {
					arc += apts[i].Sub(apts[i-1]).Norm()
				}
				crossings += uint64(arc/cellDiag) + 1
				stepsTaken += uint64(len(apts))
				// Rejected trials cost controller flops too.
				rec.Flops += aRejects * 20
				lines[pi] = line{pts: apts, spd: aspd}
				continue
			}
			if deadSeed[pi] {
				continue
			}
			pts := make([]mesh.Vec3, 0, f.opts.NumSteps/4)
			spd := make([]float64, 0, f.opts.NumSteps/4)
			lastCell := -1
			v0, _ := sampleVec(&sv, p)
			pts = append(pts, p)
			spd = append(spd, v0.Norm())
			for s := 0; s < f.opts.NumSteps; s++ {
				// RK4 with four field samples.
				k1, ok1 := sampleVec(&sv, p)
				k2, ok2 := sampleVec(&sv, p.Add(k1.Scale(h/2)))
				k3, ok3 := sampleVec(&sv, p.Add(k2.Scale(h/2)))
				k4, ok4 := sampleVec(&sv, p.Add(k3.Scale(h)))
				samples += 4
				if !(ok1 && ok2 && ok3 && ok4) {
					break // left the bounding box: terminate
				}
				delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6)
				p = p.Add(delta)
				if !b.Contains(p) {
					break
				}
				stepsTaken++
				pts = append(pts, p)
				spd = append(spd, k1.Norm())
				// Track cell crossings for the memory model by the true
				// linearized cell id.
				if cell, inGrid := sv.Cell(p[0], p[1], p[2]); inGrid && cell != lastCell {
					crossings++
					lastCell = cell
				}
			}
			lines[pi] = line{pts: pts, spd: spd}
		}
		// RK4 math: three trilinear component reconstructions (~90 flops)
		// per sample plus the step combination; samples read a cache-hot
		// 8-corner neighborhood (resident), and each cell crossing pulls
		// fresh lines.
		rec.Flops += samples*90 + stepsTaken*30
		rec.IntOps += samples * 24
		rec.Branches += samples * 6
		rec.LoadBytes[ops.Resident] += samples * 192
		rec.LoadBytes[ops.Random] += crossings * 192
		rec.RandomAccesses += crossings
		rec.StoreBytes[ops.Stream] += stepsTaken * 32
	})

	out := mesh.NewLineSet()
	totalSteps := 0
	for _, l := range lines {
		if len(l.pts) >= 2 {
			out.AppendLine(l.pts, l.spd)
			totalSteps += len(l.pts)
		}
	}
	// The footprint is the field data along the particle paths (capped at
	// the full field: paths overlap) plus the streamline output. Because
	// seed count, step length, and step count are size-independent, so is
	// this working set — the paper's Fig. 6 flat-IPC mechanism.
	var prof ops.Profile
	for _, p := range profs {
		prof.Add(p)
	}
	pathBytes := prof.RandomAccesses * 96 // one random access per crossing
	if fieldBytes := uint64(g.NumPoints()) * 24; pathBytes > fieldBytes {
		pathBytes = fieldBytes
	}
	prof.Launches = 1
	prof.WorkingSetBytes = pathBytes + uint64(totalSteps)*32
	ex.Charge(prof)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Lines:    out,
	}
}

// RejectSeeds marks the seeds outside g's sampling domain, writing
// into dead (grown as needed) and returning it. It applies the one
// out-of-domain predicate the oracle shares with Advancer.Seed (and so
// with Run and dist.Advect): mesh.(*UniformGrid).InDomain.
func RejectSeeds(g *mesh.UniformGrid, starts []mesh.Vec3, dead []bool) []bool {
	if cap(dead) < len(starts) {
		dead = make([]bool, len(starts))
	}
	dead = dead[:len(starts)]
	for i, p := range starts {
		dead[i] = !g.InDomain(p)
	}
	return dead
}

// integrateAdaptive traces one streamline with error control: steps are
// accepted when the embedded error estimate is at or below tol, and the
// step size adapts by the standard third-order controller. The particle
// terminates on leaving the bounds, on exceeding maxLen of arc length, or
// after maxSteps accepted steps.
func integrateAdaptive(s *mesh.VectorSampler, b mesh.Bounds, start mesh.Vec3,
	tol, h0, maxLen float64, maxSteps int) (pts []mesh.Vec3, spd []float64, samples, rejects uint64) {
	hMin, hMax := AdaptiveStepBounds(h0)
	h := h0
	p := start
	v, ok := sampleVec(s, p)
	if !ok {
		return nil, nil, 0, 0
	}
	pts = append(pts, p)
	spd = append(spd, v.Norm())
	arc := 0.0
	for step := 0; step < maxSteps && arc < maxLen; step++ {
		for {
			next, v0, errEst, ok := bs23StepVec(s, p, h)
			samples += 4
			if !ok {
				return pts, spd, samples, rejects // left the domain
			}
			if errEst <= tol || h <= hMin {
				arc += next.Sub(p).Norm()
				p = next
				if !b.Contains(p) {
					return pts, spd, samples, rejects
				}
				pts = append(pts, p)
				spd = append(spd, v0.Norm())
				// Grow the step for the next round.
				h = controller(h, errEst, tol, hMin, hMax)
				break
			}
			rejects++
			h = controller(h, errEst, tol, hMin, hMax)
		}
	}
	return pts, spd, samples, rejects
}
