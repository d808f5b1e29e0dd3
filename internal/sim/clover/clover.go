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

// The CloverLeaf benchmark deck the paper's data set comes from: an ideal
// gas at ambient state 1 (density, specific internal energy) with the
// energetic state 2 filling the corner cube [0, sourceExtent)³, advanced
// at Courant number cfl.
const (
	// gamma is the ideal-gas ratio of specific heats. It is typed so that
	// gamma-1 is the float64 difference 0.3999999999999999 the data sets
	// are made with, not an exact 0.4.
	gamma float64 = 1.4
	cfl           = 0.4

	ambientDensity, ambientEnergy = 0.2, 1.0
	sourceDensity, sourceEnergy   = 1.0, 2.5
	sourceExtent                  = 0.3
)

// Options has no fields: the proxy runs the one deck above with the one
// first-order scheme. The type stays because the benchmark programs under
// bench/, which are held fixed, call New(n, Options{}).
type Options struct{}

// Sim is the proxy-application state: conserved variables on an n³ uniform
// grid of cells spanning the unit cube.
type Sim struct {
	nx, ny, nz int     // cells per axis
	h          float64 // cell spacing

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
func New(n int, _ Options) (*Sim, error) {
	if n < 2 {
		return nil, fmt.Errorf("clover: need at least 2 cells per axis, got %d", n)
	}
	nc := n * n * n
	s := &Sim{
		nx: n, ny: n, nz: n, h: 1.0 / float64(n),
		rho: make([]float64, nc), mx: make([]float64, nc), my: make([]float64, nc),
		mz: make([]float64, nc), etot: make([]float64, nc),
		prs: make([]float64, nc), snd: make([]float64, nc),
	}
	s.initDeck()
	return s, nil
}

// initDeck applies the two-state benchmark initialization.
func (s *Sim) initDeck() {
	for k := 0; k < s.nz; k++ {
		z := (float64(k) + 0.5) * s.h
		for j := 0; j < s.ny; j++ {
			y := (float64(j) + 0.5) * s.h
			for i := 0; i < s.nx; i++ {
				x := (float64(i) + 0.5) * s.h
				c := s.idx(i, j, k)
				rho, e := ambientDensity, ambientEnergy
				if x < sourceExtent && y < sourceExtent && z < sourceExtent {
					rho, e = sourceDensity, sourceEnergy
				}
				s.rho[c] = rho
				s.etot[c] = rho * e // zero initial velocity
			}
		}
	}
}

func (s *Sim) idx(i, j, k int) int { return i + s.nx*(j+s.ny*k) }

// NumCells returns the total cell count.
func (s *Sim) NumCells() int { return s.nx * s.ny * s.nz }

// Time returns the simulated physical time.
func (s *Sim) Time() float64 { return s.time }

// eosAndSpeeds fills pressure and sound speed and returns the maximum
// signal speed |u|+c over the domain (for the CFL condition).
func (s *Sim) eosAndSpeeds(pool *par.Pool, recs []ops.Recorder) float64 {
	nc := s.NumCells()
	maxSpeed := par.Reduce(pool, nc, 0,
		func() float64 { return 0 },
		func(lo, hi int, acc float64) float64 {
			for c := lo; c < hi; c++ {
				r := s.rho[c]
				inv := 1 / r
				ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
				p := (gamma - 1) * (s.etot[c] - ke)
				if p < 1e-12 {
					p = 1e-12
				}
				s.prs[c] = p
				cs := math.Sqrt(gamma * p * inv)
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
	nc := s.NumCells()
	pool.For(nc, 0, func(lo, hi, worker int) {
		for c := lo; c < hi; c++ {
			r := s.rho[c]
			inv := 1 / r
			ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
			p := (gamma - 1) * (s.etot[c] - ke)
			if p < 1e-12 {
				p = 1e-12
			}
			s.prs[c] = p
			s.snd[c] = math.Sqrt(gamma * p * inv)
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

// timestep refreshes pressure and sound speed and returns the CFL
// timestep of the current state.
func (s *Sim) timestep(pool *par.Pool, recs []ops.Recorder) float64 {
	maxSpeed := s.eosAndSpeeds(pool, recs)
	if maxSpeed <= 0 || math.IsNaN(maxSpeed) {
		maxSpeed = 1
	}
	return cfl * s.h / maxSpeed
}

// Step advances the simulation by one explicit timestep and returns dt.
// recs may be nil when operation accounting is not needed.
func (s *Sim) Step(pool *par.Pool, recs []ops.Recorder) float64 {
	if pool == nil {
		pool = par.NewPool(1)
	}
	dt := s.timestep(pool, recs)
	// Dimensionally-split sweeps, refreshing primitives between passes.
	s.sweep(0, dt, pool, recs)
	s.refreshEOS(pool, recs)
	s.sweep(1, dt, pool, recs)
	s.refreshEOS(pool, recs)
	s.sweep(2, dt, pool, recs)
	s.time += dt
	s.step++
	if len(recs) > 0 {
		recs[0].WorkingSet(uint64(s.NumCells()) * 7 * 8)
	}
	return dt
}

// Grid exports the current state as a mesh.UniformGrid over the unit cube
// with the fields the paper's filters consume:
//
//	cell fields:  "energy" (specific internal), "density", "pressure"
//	point fields: "energy" (recentered)
//	point vector: "velocity"
func (s *Sim) Grid() (*mesh.UniformGrid, error) {
	g, err := mesh.NewCubeGrid(s.nx)
	if err != nil {
		return nil, err
	}
	energy := g.AddCellField("energy")
	density := g.AddCellField("density")
	pressure := g.AddCellField("pressure")
	for c := 0; c < s.NumCells(); c++ {
		r := s.rho[c]
		inv := 1 / r
		ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
		eint := (s.etot[c] - ke) * inv
		energy[c] = eint
		density[c] = r
		pressure[c] = (gamma - 1) * (s.etot[c] - ke)
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
