// Package threshold implements the study's threshold algorithm: it
// iterates over every cell in the data set and keeps exactly the cells
// whose scalar lies in a specified range, removing the rest. It is the
// most purely data-bound of the eight algorithms — a streamed load and a
// compare per cell, with compaction stores for the survivors — which is
// why the paper measures it with the lowest IPC of the set.
package threshold

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the cell-centered scalar tested against the range.
	// Default "energy".
	Field string
	// Lo and Hi bound the kept range. If both are zero, the upper half
	// of the field range is kept.
	Lo, Hi float64
	// Backend selects the cost function that prices the launch: the
	// traditional per-chunk count → fill formulation's (default) or the
	// data-parallel-primitive flag → compact → emit formulation's. The
	// kernel and its output are the same under both.
	Backend viz.Backend
}

// Filter is the threshold algorithm.
type Filter struct{ opts Options }

// New creates a threshold filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Threshold" }

// Backend implements viz.BackendProvider.
func (f *Filter) Backend() viz.Backend { return f.opts.Backend }

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	cf := g.CellField(f.opts.Field)
	if cf == nil {
		return nil, fmt.Errorf("threshold: grid has no cell field %q", f.opts.Field)
	}
	lo, hi := f.opts.Lo, f.opts.Hi
	if lo == 0 && hi == 0 {
		fmin, fmax := mesh.FieldRange(cf)
		lo = fmin + 0.5*(fmax-fmin)
		hi = fmax
	}
	// Point scalars for the output carry the recentered field.
	pf, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, err
	}

	// The output, counted and filled per GrainFixed chunk: a chunk's
	// corners are deduplicated within the chunk, so its boundaries are part
	// of the output.
	nCells := g.NumCells()
	wins := make([]mesh.PointWindow, ex.Pool.Workers())
	em := mesh.Count(ex.Pool, nCells, par.GrainFixed(nCells), func(lo2, hi2, worker int) mesh.Sizes {
		win := &wins[worker]
		win.Reset(g, lo2, hi2)
		var at mesh.Sizes
		cell := g.WalkCells(lo2)
		for ; cell.Cell < hi2; cell.Next() {
			if v := cf[cell.Cell]; v >= lo && v <= hi {
				at.Points += win.Mark(&cell)
				at.Cells++
			}
		}
		at.Conn = 8 * at.Cells
		return at
	})
	out := em.Cells()

	em.Fill(func(lo2, hi2, worker int, at mesh.Sizes) (mesh.Sizes, uint64) {
		return fill(g, cf, pf, lo, hi, lo2, hi2, &wins[worker], out, at), 0
	})
	cost := tradCost
	if f.opts.Backend == viz.DPP {
		cost = dppCost
	}
	ex.Charge(cost(uint64(nCells), uint64(em.Total.Cells), uint64(len(pf)), uint64(em.Total.Points)))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}

// fill writes the cells of [lo2, hi2) whose value lies in [lo, hi] into
// out from offsets at, as hexahedra with the chunk's corners deduplicated
// through win, and returns the offsets past them.
func fill(g *mesh.UniformGrid, cf, pf []float64, lo, hi float64, lo2, hi2 int, win *mesh.PointWindow, out *mesh.UnstructuredMesh, at mesh.Sizes) mesh.Sizes {
	win.Reset(g, lo2, hi2)
	w := mesh.CellWriter{Mesh: out, Next: at}
	cell := g.WalkCells(lo2)
	for ; cell.Cell < hi2; cell.Next() {
		if v := cf[cell.Cell]; v >= lo && v <= hi {
			w.AddHex(&cell, pf, win)
		}
	}
	return w.Next
}
