// Package clover is a CloverLeaf-like hydrodynamics proxy application. The
// paper couples its eight visualization algorithms in situ with CloverLeaf
// through Ascent and visualizes "the energy field at the 200th time step".
// This package produces that substrate: a 3-D compressible Euler solver
// (ideal-gas EOS, dimensionally-split finite-volume sweeps with Rusanov
// fluxes, reflective walls) initialized with the CloverLeaf benchmark deck
// shape — an energetic region in one corner of an ambient box — whose shock
// structure gives every filter real geometry to extract.
//
// The solver is conservative: with reflective walls, total mass and total
// energy are preserved to round-off, which the tests verify.
package clover

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
)

// Options configures the proxy.
type Options struct {
	// Gamma is the ideal-gas ratio of specific heats. Default 1.4.
	Gamma float64
	// CFL is the Courant number for the explicit timestep. Default 0.4.
	CFL float64
	// AmbientDensity and AmbientEnergy set the background state
	// (CloverLeaf state 1: rho 0.2, specific internal energy 1.0).
	AmbientDensity, AmbientEnergy float64
	// SourceDensity and SourceEnergy set the energetic region
	// (CloverLeaf state 2: rho 1.0, specific internal energy 2.5).
	SourceDensity, SourceEnergy float64
	// SourceExtent is the fraction of the unit cube, from the origin
	// corner, occupied by the energetic region. Default 0.3.
	SourceExtent float64
	// SecondOrder enables MUSCL reconstruction (minmod-limited linear
	// interface states) in the sweeps, halving the scheme's numerical
	// diffusion. The default first-order scheme is more robust and is
	// what the study harness uses.
	SecondOrder bool
}

// withDefaults fills zero fields with the benchmark-deck values.
func (o Options) withDefaults() Options {
	if o.Gamma == 0 {
		o.Gamma = 1.4
	}
	if o.CFL == 0 {
		o.CFL = 0.4
	}
	if o.AmbientDensity == 0 {
		o.AmbientDensity = 0.2
	}
	if o.AmbientEnergy == 0 {
		o.AmbientEnergy = 1.0
	}
	if o.SourceDensity == 0 {
		o.SourceDensity = 1.0
	}
	if o.SourceEnergy == 0 {
		o.SourceEnergy = 2.5
	}
	if o.SourceExtent == 0 {
		o.SourceExtent = 0.3
	}
	return o
}

// Sim is the proxy-application state: conserved variables on an n³ uniform
// grid of cells spanning the unit cube.
type Sim struct {
	nx, ny, nz int     // cells per axis of this (sub)domain
	zOff       int     // global k offset of the first local layer
	h          float64 // cell spacing
	opts       Options

	// Conserved variables, cell-centered, x-fastest layout.
	rho  []float64 // mass density
	mx   []float64 // momentum density
	my   []float64
	mz   []float64
	etot []float64 // total energy density

	// Scratch per step.
	prs []float64 // pressure
	snd []float64 // sound speed

	time float64
	step int
}

// New creates a proxy simulation with n cells per axis.
func New(n int, opts Options) (*Sim, error) {
	return NewSlab(n, 0, n, opts)
}

// NewSlab creates the z-slab subdomain [k0, k1) of an n-cell global cube:
// the building block of the distributed (halo-exchanged) runs in
// internal/dist. The initial deck is evaluated in global coordinates so
// the union of the rank slabs reproduces New(n)'s state exactly.
// The distributed path is first-order only (MUSCL slopes would need a
// two-layer halo).
func NewSlab(n, k0, k1 int, opts Options) (*Sim, error) {
	if n < 2 {
		return nil, fmt.Errorf("clover: need at least 2 cells per axis, got %d", n)
	}
	if k0 < 0 || k1 > n || k1-k0 < 1 {
		return nil, fmt.Errorf("clover: slab [%d,%d) outside 0..%d", k0, k1, n)
	}
	o := opts.withDefaults()
	if o.SecondOrder && (k0 != 0 || k1 != n) {
		return nil, fmt.Errorf("clover: second-order sweeps need the full domain (one-layer halo)")
	}
	nz := k1 - k0
	nc := n * n * nz
	s := &Sim{
		nx: n, ny: n, nz: nz, zOff: k0, h: 1.0 / float64(n), opts: o,
		rho: make([]float64, nc), mx: make([]float64, nc), my: make([]float64, nc),
		mz: make([]float64, nc), etot: make([]float64, nc),
		prs: make([]float64, nc), snd: make([]float64, nc),
	}
	s.initDeck()
	return s, nil
}

// initDeck applies the two-state benchmark initialization.
func (s *Sim) initDeck() {
	o := s.opts
	ext := o.SourceExtent
	for k := 0; k < s.nz; k++ {
		z := (float64(k+s.zOff) + 0.5) * s.h
		for j := 0; j < s.ny; j++ {
			y := (float64(j) + 0.5) * s.h
			for i := 0; i < s.nx; i++ {
				x := (float64(i) + 0.5) * s.h
				c := s.idx(i, j, k)
				rho, e := o.AmbientDensity, o.AmbientEnergy
				if x < ext && y < ext && z < ext {
					rho, e = o.SourceDensity, o.SourceEnergy
				}
				s.rho[c] = rho
				s.etot[c] = rho * e // zero initial velocity
			}
		}
	}
}

func (s *Sim) idx(i, j, k int) int { return i + s.nx*(j+s.ny*k) }

// N returns the cell count per axis in x and y (the global edge length).
func (s *Sim) N() int { return s.nx }

// LocalNZ returns the local z-layer count (equal to N for a full cube).
func (s *Sim) LocalNZ() int { return s.nz }

// ZOffset returns the global index of the first local z layer.
func (s *Sim) ZOffset() int { return s.zOff }

// NumCells returns the total local cell count.
func (s *Sim) NumCells() int { return s.nx * s.ny * s.nz }

// Cell returns the conserved state of local cell (i, j, k).
func (s *Sim) Cell(i, j, k int) (rho, mx, my, mz, etot float64) {
	c := s.idx(i, j, k)
	return s.rho[c], s.mx[c], s.my[c], s.mz[c], s.etot[c]
}

// Time returns the simulated physical time.
func (s *Sim) Time() float64 { return s.time }

// StepCount returns the number of steps taken.
func (s *Sim) StepCount() int { return s.step }

// eosAndSpeeds fills pressure and sound speed and returns the maximum
// signal speed |u|+c over the domain (for the CFL condition).
func (s *Sim) eosAndSpeeds(pool *par.Pool, recs []ops.Recorder) float64 {
	g1 := s.opts.Gamma - 1
	nc := s.NumCells()
	maxSpeed := par.Reduce(pool, nc, 0,
		func() float64 { return 0 },
		func(lo, hi int, acc float64) float64 {
			for c := lo; c < hi; c++ {
				r := s.rho[c]
				inv := 1 / r
				ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
				p := g1 * (s.etot[c] - ke)
				if p < 1e-12 {
					p = 1e-12
				}
				s.prs[c] = p
				cs := math.Sqrt(s.opts.Gamma * p * inv)
				s.snd[c] = cs
				u := math.Sqrt(s.mx[c]*s.mx[c]+s.my[c]*s.my[c]+s.mz[c]*s.mz[c]) * inv
				if u+cs > acc {
					acc = u + cs
				}
			}
			return acc
		},
		math.Max,
	)
	if len(recs) > 0 {
		// EOS kernel: 5 field loads + 2 stores per cell, ~25 flops.
		recs[0].Loads(uint64(nc)*5*8, ops.Stream)
		recs[0].Stores(uint64(nc)*2*8, ops.Stream)
		recs[0].Flops(uint64(nc) * 25)
		recs[0].Branches(uint64(nc))
	}
	return maxSpeed
}

// refreshEOS recomputes pressure and sound speed (used between split
// sweeps so each sweep sees consistent primitives).
func (s *Sim) refreshEOS(pool *par.Pool, recs []ops.Recorder) {
	g1 := s.opts.Gamma - 1
	nc := s.NumCells()
	pool.For(nc, 0, func(lo, hi, worker int) {
		for c := lo; c < hi; c++ {
			r := s.rho[c]
			inv := 1 / r
			ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
			p := g1 * (s.etot[c] - ke)
			if p < 1e-12 {
				p = 1e-12
			}
			s.prs[c] = p
			s.snd[c] = math.Sqrt(s.opts.Gamma * p * inv)
		}
		if recs != nil {
			rec := &recs[worker]
			nn := uint64(hi - lo)
			rec.Loads(nn*5*8, ops.Stream)
			rec.Stores(nn*2*8, ops.Stream)
			rec.Flops(nn * 20)
			rec.Branches(nn)
		}
	})
}

// GhostCell is one halo cell's state as exchanged between z-slab ranks:
// the five conserved quantities plus the derived pressure and sound speed
// so the receiving rank's boundary fluxes match the serial computation
// bit for bit.
type GhostCell struct {
	Rho, Mx, My, Mz, E float64
	P, C               float64
}

// MaxSignalSpeed recomputes pressure/sound speed and returns the local
// maximum |u|+c for the CFL condition. Distributed steppers min-reduce
// the per-rank results into a global dt.
func (s *Sim) MaxSignalSpeed(pool *par.Pool, recs []ops.Recorder) float64 {
	if pool == nil {
		pool = par.NewPool(1)
	}
	v := s.eosAndSpeeds(pool, recs)
	if v <= 0 || math.IsNaN(v) {
		return 1
	}
	return v
}

// DT converts a (global) maximum signal speed into the CFL timestep.
func (s *Sim) DT(maxSpeed float64) float64 {
	return s.opts.CFL * s.h / maxSpeed
}

// SweepXY runs the x and y sweeps (which never cross z-slab boundaries)
// with EOS refreshes, leaving the primitives consistent for the z sweep.
func (s *Sim) SweepXY(dt float64, pool *par.Pool, recs []ops.Recorder) {
	s.sweep(0, dt, pool, recs, nil, nil)
	s.refreshEOS(pool, recs)
	s.sweep(1, dt, pool, recs, nil, nil)
	s.refreshEOS(pool, recs)
}

// ZBoundary copies the subdomain's first and last z layers (after the x/y
// sweeps and EOS refresh) into halo payloads for the neighboring ranks.
func (s *Sim) ZBoundary() (lo, hi []GhostCell) {
	lo = make([]GhostCell, s.nx*s.ny)
	hi = make([]GhostCell, s.nx*s.ny)
	for j := 0; j < s.ny; j++ {
		for i := 0; i < s.nx; i++ {
			p := i + s.nx*j
			c := s.idx(i, j, 0)
			lo[p] = GhostCell{s.rho[c], s.mx[c], s.my[c], s.mz[c], s.etot[c], s.prs[c], s.snd[c]}
			c = s.idx(i, j, s.nz-1)
			hi[p] = GhostCell{s.rho[c], s.mx[c], s.my[c], s.mz[c], s.etot[c], s.prs[c], s.snd[c]}
		}
	}
	return lo, hi
}

// SweepZ runs the z sweep. ghostLo/ghostHi, when non-nil, supply the
// neighboring rank's boundary layers (one GhostCell per (i,j) pencil, in
// i-fastest order); a nil side is a reflective physical wall.
func (s *Sim) SweepZ(dt float64, pool *par.Pool, recs []ops.Recorder, ghostLo, ghostHi []GhostCell) {
	s.sweep(2, dt, pool, recs, ghostLo, ghostHi)
}

// FinishStep advances the clock after the sweeps.
func (s *Sim) FinishStep(dt float64) {
	s.time += dt
	s.step++
}

// Step advances the simulation by one explicit timestep and returns dt.
// recs may be nil when operation accounting is not needed.
func (s *Sim) Step(pool *par.Pool, recs []ops.Recorder) float64 {
	if pool == nil {
		pool = par.NewPool(1)
	}
	maxSpeed := s.eosAndSpeeds(pool, recs)
	if maxSpeed <= 0 || math.IsNaN(maxSpeed) {
		maxSpeed = 1
	}
	dt := s.DT(maxSpeed)
	// Dimensionally-split sweeps, refreshing primitives between passes.
	s.SweepXY(dt, pool, recs)
	s.SweepZ(dt, pool, recs, nil, nil)
	s.FinishStep(dt)
	if recs != nil && len(recs) > 0 {
		recs[0].WorkingSet(uint64(s.NumCells()) * 7 * 8)
	}
	return dt
}

// Run advances the simulation by steps timesteps.
func (s *Sim) Run(steps int, pool *par.Pool, recs []ops.Recorder) {
	for i := 0; i < steps; i++ {
		s.Step(pool, recs)
	}
}

// TotalMass returns the integral of density over the domain.
func (s *Sim) TotalMass() float64 {
	vol := s.h * s.h * s.h
	sum := 0.0
	for _, r := range s.rho {
		sum += r
	}
	return sum * vol
}

// TotalEnergy returns the integral of total energy over the domain.
func (s *Sim) TotalEnergy() float64 {
	vol := s.h * s.h * s.h
	sum := 0.0
	for _, e := range s.etot {
		sum += e
	}
	return sum * vol
}

// Grid exports the current state as a mesh.UniformGrid over the unit cube
// with the fields the paper's filters consume:
//
//	cell fields:  "energy" (specific internal), "density", "pressure"
//	point fields: "energy" (recentered)
//	point vector: "velocity"
func (s *Sim) Grid() (*mesh.UniformGrid, error) {
	if s.nz != s.nx || s.zOff != 0 {
		return nil, fmt.Errorf("clover: Grid requires the full cube; assemble slab ranks with dist.DistSim")
	}
	g, err := mesh.NewCubeGrid(s.nx)
	if err != nil {
		return nil, err
	}
	energy := g.AddCellField("energy")
	density := g.AddCellField("density")
	pressure := g.AddCellField("pressure")
	g1 := s.opts.Gamma - 1
	for c := 0; c < s.NumCells(); c++ {
		r := s.rho[c]
		inv := 1 / r
		ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
		eint := (s.etot[c] - ke) * inv
		energy[c] = eint
		density[c] = r
		pressure[c] = g1 * (s.etot[c] - ke)
	}
	if _, err := g.CellToPoint("energy"); err != nil {
		return nil, err
	}
	// Recenter velocity to the points by averaging incident cells.
	vel := g.AddPointVector("velocity")
	n := s.nx
	for k := 0; k <= n; k++ {
		k0, k1 := max(k-1, 0), min(k, n-1)
		for j := 0; j <= n; j++ {
			j0, j1 := max(j-1, 0), min(j, n-1)
			for i := 0; i <= n; i++ {
				i0, i1 := max(i-1, 0), min(i, n-1)
				var v mesh.Vec3
				cnt := 0.0
				for kk := k0; kk <= k1; kk++ {
					for jj := j0; jj <= j1; jj++ {
						for ii := i0; ii <= i1; ii++ {
							c := s.idx(ii, jj, kk)
							inv := 1 / s.rho[c]
							v[0] += s.mx[c] * inv
							v[1] += s.my[c] * inv
							v[2] += s.mz[c] * inv
							cnt++
						}
					}
				}
				vel[g.PointID(i, j, k)] = v.Scale(1 / cnt)
			}
		}
	}
	return g, nil
}
