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
	"repro/internal/ops"
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
	// Backend selects the traditional scratch-mesh implementation
	// (default) or the data-parallel-primitive flag → compact
	// formulation. Both produce bit-identical output.
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

	if f.opts.Backend == viz.DPP {
		return runDPP(g, cf, pf, lo, hi, ex)
	}

	nCells := g.NumCells()
	grain := par.GrainFixed(nCells)
	col := mesh.AcquireCellCollector(ex.Pool)

	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo2, hi2, worker int) {
		rec := ex.Rec(worker)
		part := col.Seg(lo2, worker)
		local := col.Local(worker)
		var kept uint64
		for cell := lo2; cell < hi2; cell++ {
			v := cf[cell]
			if v < lo || v > hi {
				continue
			}
			kept++
			pts := g.CellPoints(cell)
			var conn [8]int32
			for c, pid := range pts {
				id, ok := local[pid]
				if !ok {
					id = part.AddPoint(g.PointPosition(pid), pf[pid])
					local[pid] = id
				}
				conn[c] = id
			}
			part.AddCell(mesh.Hex, conn[0], conn[1], conn[2], conn[3], conn[4], conn[5], conn[6], conn[7])
		}

		// Threshold compacts with the classify → scan → scatter pattern
		// (as VTK-m does): the cell field is streamed twice (classify
		// and scatter-read), a mask/offset word is written per cell, and
		// survivors gather corner positions/scalars and store the
		// compacted cell. Almost pure streaming — the lowest-IPC, most
		// bandwidth-bound mix of the eight algorithms.
		n := uint64(hi2 - lo2)
		rec.Loads(n*24, ops.Stream) // classify + scan + scatter passes
		rec.Stores(n*6, ops.Stream) // mask + offset words
		rec.Flops(n * 1)
		rec.Branches(n * 1)
		rec.IntOps(n * 1)
		rec.Loads(kept*8*32, ops.Strided)
		rec.IntOps(kept * 8 * 4) // point-map lookups
		rec.Stores(kept*(8*32+8*4), ops.Stream)
	})

	out := mesh.NewUnstructuredMesh()
	col.Release(out)
	rec := ex.Rec(0)
	rec.WorkingSet(uint64(nCells)*8 + uint64(len(pf))*8 + uint64(len(out.Points))*40)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
