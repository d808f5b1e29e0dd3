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

	// ext is the disturbed box [0, ext[0]) × [0, ext[1]) × [0, ext[2]),
	// anchored at the source's corner: every cell outside it holds the
	// ambient state bit for bit, and its prs and snd the ambient EOS
	// values. A first-order sweep carries a disturbance at most one cell
	// along its axis, so each sweep grows the box by one cell along that
	// axis; outside the box the EOS passes and the sweeps are the
	// identity, so they visit only the box.
	ext [3]int

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

// initDeck applies the two-state benchmark initialization. The source's
// cells are the disturbed box; every cell is given the ambient pressure
// and sound speed, which the first EOS pass replaces inside the box.
func (s *Sim) initDeck() {
	for s.ext[0] < s.nx && (float64(s.ext[0])+0.5)*s.h < sourceExtent {
		s.ext[0]++
	}
	s.ext[1], s.ext[2] = s.ext[0], s.ext[0]
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
	// The far corner is never in the source.
	c := s.NumCells() - 1
	p, cs, _ := eos(s.rho[c], s.mx[c], s.my[c], s.mz[c], s.etot[c])
	for c := range s.prs {
		s.prs[c], s.snd[c] = p, cs
	}
}

func (s *Sim) idx(i, j, k int) int { return i + s.nx*(j+s.ny*k) }

// NumCells returns the total cell count.
func (s *Sim) NumCells() int { return s.nx * s.ny * s.nz }

// Time returns the simulated physical time.
func (s *Sim) Time() float64 { return s.time }

// eos is the ideal-gas EOS of a cell's conserved state: its pressure,
// sound speed and signal speed |u|+c.
func eos(rho, mx, my, mz, e float64) (p, cs, speed float64) {
	inv := 1 / rho
	m2 := mx*mx + my*my + mz*mz
	p = (gamma - 1) * (e - 0.5*m2*inv)
	if p < 1e-12 {
		p = 1e-12
	}
	cs = math.Sqrt(gamma * p * inv)
	return p, cs, math.Sqrt(m2)*inv + cs
}

// eosRow fills pressure and sound speed on the n cells from c and returns
// the larger of acc and their largest signal speed (a NaN one is passed
// over).
func (s *Sim) eosRow(c, n int, acc float64) float64 {
	rho, mx, my, mz, e := s.rho[c:][:n], s.mx[c:][:n], s.my[c:][:n], s.mz[c:][:n], s.etot[c:][:n]
	prs, snd := s.prs[c:][:n], s.snd[c:][:n]
	for i := range rho {
		p, cs, speed := eos(rho[i], mx[i], my[i], mz[i], e[i])
		prs[i], snd[i] = p, cs
		if speed > acc {
			acc = speed
		}
	}
	return acc
}

// boxRows returns the number of x rows in the disturbed box; row r starts
// at cell boxRow(r) and is ext[0] cells long.
func (s *Sim) boxRows() int { return s.ext[1] * s.ext[2] }

func (s *Sim) boxRow(r int) int { return s.idx(0, r%s.ext[1], r/s.ext[1]) }

// eosAndSpeeds fills pressure and sound speed in the disturbed box and
// returns the maximum signal speed |u|+c over the domain (for the CFL
// condition). A cell outside the box has the ambient speed, which the far
// corner's state gives while the box is smaller than the grid; the
// maximum is exact and order-free, so this is the full-grid maximum.
func (s *Sim) eosAndSpeeds(pool *par.Pool) float64 {
	maxSpeed := par.Reduce(pool, s.boxRows(), 0,
		func() float64 { return 0 },
		func(lo, hi int, acc float64) float64 {
			for r := lo; r < hi; r++ {
				acc = s.eosRow(s.boxRow(r), s.ext[0], acc)
			}
			return acc
		},
		math.Max,
	)
	if s.ext != [3]int{s.nx, s.ny, s.nz} {
		c := s.NumCells() - 1
		_, _, ambient := eos(s.rho[c], s.mx[c], s.my[c], s.mz[c], s.etot[c])
		maxSpeed = math.Max(maxSpeed, ambient)
	}
	return maxSpeed
}

// refreshEOS recomputes pressure and sound speed in the disturbed box
// (used between split sweeps so each sweep sees consistent primitives).
func (s *Sim) refreshEOS(pool *par.Pool) {
	pool.For(s.boxRows(), 0, func(lo, hi, _ int) {
		for r := lo; r < hi; r++ {
			s.eosRow(s.boxRow(r), s.ext[0], 0)
		}
	})
}

// timestep refreshes pressure and sound speed and returns the CFL
// timestep of the current state.
func (s *Sim) timestep(pool *par.Pool) float64 {
	maxSpeed := s.eosAndSpeeds(pool)
	if maxSpeed <= 0 || math.IsNaN(maxSpeed) {
		maxSpeed = 1
	}
	return cfl * s.h / maxSpeed
}

// Step advances the simulation by one explicit timestep, adds its price
// to prof unless prof is nil, and returns dt.
func (s *Sim) Step(pool *par.Pool, prof *ops.Profile) float64 {
	if pool == nil {
		pool = par.NewPool(1)
	}
	dt := s.timestep(pool)
	// Dimensionally-split sweeps, refreshing primitives between passes.
	s.sweep(0, dt, pool)
	s.refreshEOS(pool)
	s.sweep(1, dt, pool)
	s.refreshEOS(pool)
	s.sweep(2, dt, pool)
	s.time += dt
	s.step++
	if prof != nil {
		prof.Add(stepCost(uint64(s.NumCells())))
	}
	return dt
}

// Grid exports the current state as a mesh.UniformGrid over the unit cube
// holding exactly the arrays the study's filters read:
//
//	cell field:   "energy" (specific internal), threshold's
//	point field:  "energy" (recentered), every other scalar filter's
//	point vector: "velocity", particle advection's
//
// Its loops run on the default pool. No value depends on how they are
// split, so the grid is bit-identical on every pool.
func (s *Sim) Grid() (*mesh.UniformGrid, error) {
	pool := par.Default()
	g, err := mesh.NewCubeGrid(s.nx)
	if err != nil {
		return nil, err
	}
	energy := g.AddCellField("energy")
	pool.For(len(energy), 0, func(lo, hi, _ int) {
		for c := lo; c < hi; c++ {
			inv := 1 / s.rho[c]
			ke := 0.5 * (s.mx[c]*s.mx[c] + s.my[c]*s.my[c] + s.mz[c]*s.mz[c]) * inv
			energy[c] = (s.etot[c] - ke) * inv
		}
	})
	if _, err := g.CellToPoint("energy"); err != nil {
		return nil, err
	}
	// Recenter velocity to the points by averaging incident cells, one
	// point plane per iteration, each worker through a velocityPlanes of
	// its own.
	vel := g.AddPointVector("velocity")
	bufs := make([]velocityPlanes, pool.Workers())
	pool.For(s.nz+1, 0, func(lo, hi, w int) {
		for k := lo; k < hi; k++ {
			bufs[w].pointPlane(s, vel, k)
		}
	})
	return g, nil
}

// velocityPlanes is one worker's buffer of cell velocities m/ρ for Grid.
// Point plane k reads cell planes k-1 and k; cell plane kk lives in half
// kk%2 of cv, and k records which plane each half holds, so a worker
// computes a cell's velocity once, and a plane twice only where two
// workers' chunks meet.
type velocityPlanes struct {
	cv []mesh.Vec3
	k  [2]int
}

// pointPlane writes point plane k of vel: each point's velocity is the
// mean of its incident cells', summed in (k, j, i) order.
func (b *velocityPlanes) pointPlane(s *Sim, vel []mesh.Vec3, k int) {
	n := s.nx
	if b.cv == nil {
		b.cv = make([]mesh.Vec3, 2*n*n)
		b.k = [2]int{-1, -1}
	}
	k0, k1 := max(k-1, 0), min(k, n-1)
	b.load(s, k0)
	b.load(s, k1)
	cv := b.cv
	id := k * (n + 1) * (n + 1)
	for j := 0; j <= n; j++ {
		j0, j1 := max(j-1, 0), min(j, n-1)
		for i := 0; i <= n; i++ {
			i0, i1 := max(i-1, 0), min(i, n-1)
			var vx, vy, vz, cnt float64
			for kk := k0; kk <= k1; kk++ {
				for jj := j0; jj <= j1; jj++ {
					for ii := i0; ii <= i1; ii++ {
						v := &cv[(kk%2*n+jj)*n+ii]
						vx += v[0]
						vy += v[1]
						vz += v[2]
						cnt++
					}
				}
			}
			vel[id] = mesh.Vec3{vx, vy, vz}.Scale(1 / cnt)
			id++
		}
	}
}

// load makes cell plane kk's velocities present in b.
func (b *velocityPlanes) load(s *Sim, kk int) {
	if b.k[kk%2] == kk {
		return
	}
	plane := s.nx * s.ny
	dst := b.cv[kk%2*plane:][:plane]
	for q := range dst {
		c := kk*plane + q
		inv := 1 / s.rho[c]
		dst[q] = mesh.Vec3{s.mx[c] * inv, s.my[c] * inv, s.mz[c] * inv}
	}
	b.k[kk%2] = kk
}
