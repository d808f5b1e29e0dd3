package dist

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/sim/clover"
)

// DistSim is the distributed-memory hydrodynamics proxy: the global cube
// is split into z-slab subdomains, one per rank, stepped in lockstep with
// a one-layer halo exchange before each z sweep and a global CFL
// reduction before each step. With first-order sweeps the distributed
// run reproduces the single-domain run bit for bit (the tests check
// exact equality), because every boundary flux sees exactly the same
// inputs the serial sweep saw.
type DistSim struct {
	n     int
	opts  clover.Options
	ranks []*clover.Sim
	comm  *Comm
	time  float64
	steps int
}

// ghost tags for the halo exchange and reductions.
const (
	tagSpeed = 100
	tagDT    = 101
	tagHalo  = 102
)

// NewDistSim builds an n-cell global cube split across nRanks z-slabs.
func NewDistSim(n, nRanks int, opts clover.Options) (*DistSim, error) {
	return NewDistSimWith(n, nRanks, opts, Options{})
}

// NewDistSimWith is NewDistSim on a fabric with explicit Options, so the
// halo exchange can run under fault injection or send deadlines.
func NewDistSimWith(n, nRanks int, opts clover.Options, comms Options) (*DistSim, error) {
	if opts.SecondOrder {
		return nil, fmt.Errorf("dist: the halo is one layer; second-order sweeps are not supported")
	}
	if nRanks < 1 || nRanks > n {
		return nil, fmt.Errorf("dist: cannot cut %d slabs from %d layers", nRanks, n)
	}
	comm, err := NewCommWith(nRanks, comms)
	if err != nil {
		return nil, err
	}
	if opts.Gamma == 0 {
		opts.Gamma = 1.4 // clover's default, resolved here because Grid needs it
	}
	d := &DistSim{n: n, opts: opts, comm: comm, ranks: make([]*clover.Sim, nRanks)}
	for r := 0; r < nRanks; r++ {
		k0 := r * n / nRanks
		k1 := (r + 1) * n / nRanks
		sim, err := clover.NewSlab(n, k0, k1, opts)
		if err != nil {
			return nil, err
		}
		d.ranks[r] = sim
	}
	return d, nil
}

// Ranks returns the number of ranks.
func (d *DistSim) Ranks() int { return len(d.ranks) }

// Time returns the simulated physical time.
func (d *DistSim) Time() float64 { return d.time }

// StepCount returns the number of steps taken.
func (d *DistSim) StepCount() int { return d.steps }

// Rank returns rank r's subdomain (for inspection and tests).
func (d *DistSim) Rank(r int) *clover.Sim { return d.ranks[r] }

// encodeGhost flattens halo cells for the fabric.
func encodeGhost(g []clover.GhostCell) []float64 {
	out := make([]float64, 0, len(g)*7)
	for _, c := range g {
		out = append(out, c.Rho, c.Mx, c.My, c.Mz, c.E, c.P, c.C)
	}
	return out
}

func decodeGhost(d []float64) []clover.GhostCell {
	out := make([]clover.GhostCell, len(d)/7)
	for i := range out {
		b := d[i*7:]
		out[i] = clover.GhostCell{Rho: b[0], Mx: b[1], My: b[2], Mz: b[3], E: b[4], P: b[5], C: b[6]}
	}
	return out
}

// Step advances every rank by one lockstep timestep and returns dt.
// recsByRank, when non-nil, carries one recorder slice per rank sized to
// the pool's workers.
func (d *DistSim) Step(pool *par.Pool, recsByRank [][]ops.Recorder) (float64, error) {
	if pool == nil {
		pool = par.NewPool(1)
	}
	nRanks := len(d.ranks)
	dts := make([]float64, nRanks)
	err := d.comm.Run(func(ep *Endpoint) error {
		r := ep.Rank()
		sim := d.ranks[r]
		var recs []ops.Recorder
		if recsByRank != nil {
			recs = recsByRank[r]
		}
		// 1. Local CFL candidate, all-reduced to the global max speed
		//    (gather on root, broadcast back).
		local := sim.MaxSignalSpeed(pool, recs)
		speeds, err := ep.Gather(0, tagSpeed, []float64{local})
		if err != nil {
			return err
		}
		var dt float64
		if r == 0 {
			global := 0.0
			for _, s := range speeds {
				global = math.Max(global, s[0])
			}
			dt = sim.DT(global)
			for dst := 1; dst < nRanks; dst++ {
				if err := ep.Send(dst, tagDT, []float64{dt}); err != nil {
					return err
				}
			}
		} else {
			v, err := ep.Recv(0, tagDT)
			if err != nil {
				return err
			}
			dt = v[0]
		}
		dts[r] = dt

		// 2. The x/y sweeps never cross slab boundaries.
		sim.SweepXY(dt, pool, recs)

		// 3. Halo exchange: my post-refresh boundary layers go to my
		//    neighbors; theirs become my z-sweep ghosts.
		loLayer, hiLayer := sim.ZBoundary()
		var ghostLo, ghostHi []clover.GhostCell
		if r > 0 {
			if err := ep.Send(r-1, tagHalo, encodeGhost(loLayer)); err != nil {
				return err
			}
		}
		if r < nRanks-1 {
			if err := ep.Send(r+1, tagHalo, encodeGhost(hiLayer)); err != nil {
				return err
			}
			data, err := ep.Recv(r+1, tagHalo)
			if err != nil {
				return err
			}
			ghostHi = decodeGhost(data)
		}
		if r > 0 {
			data, err := ep.Recv(r-1, tagHalo)
			if err != nil {
				return err
			}
			ghostLo = decodeGhost(data)
		}

		// 4. The z sweep with halo (or wall) boundaries.
		sim.SweepZ(dt, pool, recs, ghostLo, ghostHi)
		sim.FinishStep(dt)
		return nil
	})
	if err != nil {
		return 0, err
	}
	d.time += dts[0]
	d.steps++
	return dts[0], nil
}

// Run advances the distributed simulation by steps timesteps.
func (d *DistSim) Run(steps int, pool *par.Pool, recsByRank [][]ops.Recorder) error {
	for i := 0; i < steps; i++ {
		if _, err := d.Step(pool, recsByRank); err != nil {
			return err
		}
	}
	return nil
}

// TotalMass integrates density over all ranks.
func (d *DistSim) TotalMass() float64 {
	sum := 0.0
	for _, s := range d.ranks {
		sum += s.TotalMass()
	}
	return sum
}

// TotalEnergy integrates total energy over all ranks.
func (d *DistSim) TotalEnergy() float64 {
	sum := 0.0
	for _, s := range d.ranks {
		sum += s.TotalEnergy()
	}
	return sum
}

// Grid assembles the global data set from the rank slabs: the scalar fields
// of the single-domain export (cell "energy", "density", "pressure" and the
// recentered point "energy"), cell for cell the same values. The "velocity"
// point vector is not assembled; nothing downstream of a distributed run
// advects.
func (d *DistSim) Grid() (*mesh.UniformGrid, error) {
	g, err := mesh.NewCubeGrid(d.n)
	if err != nil {
		return nil, err
	}
	energy := g.AddCellField("energy")
	density := g.AddCellField("density")
	pressure := g.AddCellField("pressure")
	g1 := d.opts.Gamma - 1
	for _, sim := range d.ranks {
		for k := 0; k < sim.LocalNZ(); k++ {
			gk := k + sim.ZOffset()
			for j := 0; j < d.n; j++ {
				for i := 0; i < d.n; i++ {
					rho, mx, my, mz, etot := sim.Cell(i, j, k)
					inv := 1 / rho
					ke := 0.5 * (mx*mx + my*my + mz*mz) * inv
					c := g.CellID(i, j, gk)
					energy[c] = (etot - ke) * inv
					density[c] = rho
					pressure[c] = g1 * (etot - ke)
				}
			}
		}
	}
	if _, err := g.CellToPoint("energy"); err != nil {
		return nil, err
	}
	return g, nil
}
