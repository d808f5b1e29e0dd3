package advect

import "repro/internal/mesh"

// The one definition of "advance one particle" and of what that costs.
// Run (rounds over a compacted active list) and dist.Advect (bursts
// between migration exchanges) are two drivers of Advance; the
// independent oracle the goldens hold them to is the test-only
// runReference (reference_test.go).

// Particle is the complete migrating state of one particle: its
// trajectory from here on is a pure function of these fields, so where
// a burst ends (round length, block boundary) never changes the output.
type Particle struct {
	Pos  mesh.Vec3
	Cell int32 // last crossed cell id (fixed-step), -1 at the seed
	PID  int32 // index into the seed list
	Seq  int32 // next streamline segment number
	// Steps counts accepted steps; zero means the seed point is still
	// to be recorded.
	Steps int32
	// H and Arc are the adaptive step size and arc length so far.
	H, Arc float64
}

// Advance outcomes other than a destination (>= 0, from Leave).
const (
	Resident int32 = -1 // burst exhausted, still active here
	Retired  int32 = -2 // left the domain or spent its budget
)

// Segment is one burst's worth of one particle's streamline inside a
// Trail. Assemble orders segments by (PID, Seq).
type Segment struct {
	PID, Seq int32
	Src      int32 // trail holding the points; set by Assemble
	Off, N   int32
}

// Trail is where Advance appends: the points and speeds of every burst
// advanced into it, contiguous per segment — a rank's growing arena in
// dist.Advect, one particle's step-budget slot in Run.
type Trail struct {
	Pts  []mesh.Vec3
	Spd  []float64
	Segs []Segment
}

// seal stores the grown trail back and records the points added since
// off as p's next segment. A burst appends to local copies of Pts and
// Spd and seals once, so the step loop never writes the Trail header —
// adjacent workers' headers share cache lines.
func (tr *Trail) seal(p *Particle, pts []mesh.Vec3, spd []float64, off int) {
	tr.Pts, tr.Spd = pts, spd
	if n := len(pts) - off; n > 0 {
		tr.Segs = append(tr.Segs, Segment{PID: p.PID, Seq: p.Seq, Off: int32(off), N: int32(n)})
		p.Seq++
	}
}

// Tally counts what advancing cost; its Cost (cost.go) prices it.
type Tally struct {
	Samples   uint64 // field samples (four per trial step)
	Steps     uint64 // streamline points charged as output
	Rejects   uint64 // rejected adaptive trials
	Crossings uint64 // fresh-cell touches
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Samples += o.Samples
	t.Steps += o.Steps
	t.Rejects += o.Rejects
	t.Crossings += o.Crossings
}

// Advancer is a filter's configuration resolved against one grid.
type Advancer struct {
	// Leave, when non-nil, is asked after every accepted step whether
	// the particle left the caller's region: it returns the destination
	// (>= 0) or Resident. Nil means the region is the whole grid.
	Leave func(p mesh.Vec3) int32

	g        *mesh.UniformGrid
	bounds   mesh.Bounds
	adaptive bool
	burst    int // accepted steps per Advance call
	numSteps int32
	h0       float64
	// Adaptive mode only.
	tol, hMin, hMax, maxLen, cellDiag float64
}

// Advancer resolves the filter's options against g.
func (f *Filter) Advancer(g *mesh.UniformGrid) *Advancer {
	a := &Advancer{
		g: g, bounds: g.Bounds(), adaptive: f.opts.Adaptive, burst: stepsPerRound,
		numSteps: int32(f.opts.NumSteps), h0: f.opts.StepLength,
		tol: f.opts.Tolerance, maxLen: float64(f.opts.NumSteps) * f.opts.StepLength,
		cellDiag: g.Spacing.Norm(),
	}
	a.hMin, a.hMax = AdaptiveStepBounds(a.h0)
	return a
}

// Seed appends the initial state of every in-domain seed to ps (PID is
// the index into starts) and returns the charge for the rest: the
// adaptive arc-length crossing estimate counts one crossing per
// particle even when it dies at the seed. The predicate is
// mesh.InDomain, the exact bounds test of every sampler, so a seed on
// the domain boundary is kept or rejected identically everywhere.
func (a *Advancer) Seed(starts []mesh.Vec3, ps []Particle) ([]Particle, Tally) {
	var t Tally
	for i, p := range starts {
		if !a.g.InDomain(p) {
			if a.adaptive {
				t.Crossings++
			}
			continue
		}
		ps = append(ps, Particle{Pos: p, Cell: -1, PID: int32(i), H: a.h0})
	}
	return ps, t
}

// Advance moves p by one burst through s — fixed-step RK4 or adaptive
// Bogacki–Shampine, as the filter was configured — appending the points
// to tr as one segment and the cost to t. It returns Retired, Resident,
// or the destination Leave named.
func Advance(a *Advancer, s *mesh.VectorSampler, p *Particle, tr *Trail, t *Tally) int32 {
	if a.adaptive {
		return advanceAdaptive(a, s, p, tr, t)
	}
	return advanceFixed(a, s, p, tr, t)
}

// advanceFixed takes up to a.burst RK4 steps in the reference's exact
// arithmetic order, counting a crossing whenever the true cell id
// changes.
func advanceFixed(a *Advancer, s *mesh.VectorSampler, p *Particle, tr *Trail, t *Tally) int32 {
	px, py, pz := p.Pos[0], p.Pos[1], p.Pos[2]
	steps, lastCell := p.Steps, int(p.Cell)
	pts, spd := tr.Pts, tr.Spd
	off := len(pts)
	if steps == 0 {
		vx, vy, vz, _ := s.At(px, py, pz)
		pts, spd = append(pts, p.Pos), append(spd, norm(vx, vy, vz))
	}
	var samples, taken, crossings uint64
	out := Resident
	for n := 0; n < a.burst && steps < a.numSteps; n++ {
		nx, ny, nz, vx, vy, vz, ok := RK4Step(s, px, py, pz, a.h0)
		samples += 4
		if !ok {
			out = Retired // left the bounding box
			break
		}
		px, py, pz = nx, ny, nz
		pos := mesh.Vec3{px, py, pz}
		if !a.bounds.Contains(pos) {
			out = Retired
			break
		}
		steps++
		taken++
		pts, spd = append(pts, pos), append(spd, norm(vx, vy, vz))
		if c, inGrid := s.Cell(px, py, pz); inGrid && c != lastCell {
			crossings++
			lastCell = c
		}
		if a.Leave != nil {
			if out = a.Leave(pos); out != Resident {
				break
			}
		}
	}
	if out == Resident && steps >= a.numSteps {
		out = Retired // step budget spent
	}
	tr.seal(p, pts, spd, off)
	p.Pos, p.Steps, p.Cell = mesh.Vec3{px, py, pz}, steps, int32(lastCell)
	t.Add(Tally{Samples: samples, Steps: taken, Crossings: crossings})
	return out
}

// advanceAdaptive takes up to a.burst accepted Bogacki–Shampine steps,
// retrying each with a reshaped step until the error estimate passes
// (the hMin clamp guarantees acceptance). The budget is both the
// accepted-step count and the arc length; the seed point is charged as
// output and crossings are the reference's arc-length estimate
// (arc/cellDiag + 1) at retirement.
func advanceAdaptive(a *Advancer, s *mesh.VectorSampler, p *Particle, tr *Trail, t *Tally) int32 {
	px, py, pz := p.Pos[0], p.Pos[1], p.Pos[2]
	steps, h, arc := p.Steps, p.H, p.Arc
	pts, spd := tr.Pts, tr.Spd
	off := len(pts)
	var samples, taken, rejects, crossings uint64
	if steps == 0 {
		vx, vy, vz, _ := s.At(px, py, pz)
		pts, spd = append(pts, p.Pos), append(spd, norm(vx, vy, vz))
		taken++
	}
	out := Resident
burst:
	for n := 0; n < a.burst; n++ {
		if steps >= a.numSteps || arc >= a.maxLen {
			out = Retired
			break
		}
		for {
			nx, ny, nz, vx, vy, vz, errEst, ok := BS23Step(s, px, py, pz, h)
			samples += 4
			if !ok {
				out = Retired // left the domain
				break burst
			}
			if !(errEst <= a.tol || h <= a.hMin) {
				rejects++
				h = controller(h, errEst, a.tol, a.hMin, a.hMax)
				continue
			}
			d := norm(nx-px, ny-py, nz-pz)
			px, py, pz = nx, ny, nz
			pos := mesh.Vec3{px, py, pz}
			if !a.bounds.Contains(pos) {
				out = Retired
				break burst
			}
			arc += d
			pts, spd = append(pts, pos), append(spd, norm(vx, vy, vz))
			taken++
			steps++
			h = controller(h, errEst, a.tol, a.hMin, a.hMax) // grow for the next step
			if a.Leave != nil {
				if out = a.Leave(pos); out != Resident {
					break burst
				}
			}
			break
		}
	}
	if out == Retired {
		crossings = uint64(arc/a.cellDiag) + 1
	}
	tr.seal(p, pts, spd, off)
	p.Pos, p.Steps, p.H, p.Arc = mesh.Vec3{px, py, pz}, steps, h, arc
	t.Add(Tally{Samples: samples, Steps: taken, Rejects: rejects, Crossings: crossings})
	return out
}
