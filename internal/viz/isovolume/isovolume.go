// Package isovolume implements the study's isovolume algorithm: like
// clip, but the kept region is defined by a scalar range [lo, hi] instead
// of an implicit sphere. Cells entirely inside the range pass through,
// cells entirely outside are removed, and straddling cells are subdivided
// into tetrahedra and clipped twice (against lo from above and hi from
// below). Its heavy corner-gather traffic gives it the highest last-level-
// cache miss rate of the eight algorithms in the paper (Fig. 2c).
package isovolume

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the point-centered scalar evaluated against the range (a
	// cell field is recentered). Default "energy".
	Field string
	// Lo and Hi bound the kept range. If both are zero, [40%, 90%] of
	// the field range is used.
	Lo, Hi float64
}

// Filter is the isovolume algorithm.
type Filter struct{ opts Options }

// New creates an isovolume filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Isovolume" }

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	field, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("isovolume: %w", err)
	}
	lo, hi := f.opts.Lo, f.opts.Hi
	if lo == 0 && hi == 0 {
		fmin, fmax := mesh.FieldRange(field)
		lo = fmin + 0.4*(fmax-fmin)
		hi = fmin + 0.9*(fmax-fmin)
	}
	if hi < lo {
		return nil, fmt.Errorf("isovolume: empty range [%v, %v]", lo, hi)
	}

	nCells := g.NumCells()
	grain := par.GrainFixed(nCells)
	col := mesh.AcquireCellCollector(ex.Pool)

	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo2, hi2, worker int) {
		rec := ex.Rec(worker)
		part := col.Seg(lo2, worker)
		local := col.Local(worker)
		var ts [6]viz.Tet
		above := make([]viz.Tet, 0, 16)
		kept := make([]viz.Tet, 0, 16)
		var whole, straddle, pieces uint64
		for cell := lo2; cell < hi2; cell++ {
			pts := g.CellPoints(cell)
			vmin, vmax := field[pts[0]], field[pts[0]]
			for c := 1; c < 8; c++ {
				v := field[pts[c]]
				if v < vmin {
					vmin = v
				}
				if v > vmax {
					vmax = v
				}
			}
			switch {
			case vmax < lo || vmin > hi:
				// Entirely outside the range: removed.
			case vmin >= lo && vmax <= hi:
				// Entirely inside: pass the hex through.
				whole++
				var conn [8]int32
				for c, pid := range pts {
					id, ok := local[pid]
					if !ok {
						id = part.AddPoint(g.PointPosition(pid), field[pid])
						local[pid] = id
					}
					conn[c] = id
				}
				part.AddCell(mesh.Hex, conn[0], conn[1], conn[2], conn[3], conn[4], conn[5], conn[6], conn[7])
			default:
				// Straddling: clip tets against both range bounds.
				straddle++
				viz.CellTets(g, field, field, cell, &ts)
				for i := range ts {
					above = ts[i].ClipAbove(lo, above[:0])
					kept = kept[:0]
					for _, a := range above {
						kept = a.ClipBelow(hi, kept)
					}
					for _, piece := range kept {
						pieces++
						var conn [4]int32
						for c := 0; c < 4; c++ {
							conn[c] = part.AddPoint(piece.P[c], piece.S[c])
						}
						part.AddCell(mesh.Tet, conn[0], conn[1], conn[2], conn[3])
					}
				}
			}
		}

		n := uint64(hi2 - lo2)
		rec.Loads(n*8*8, ops.Strided)
		rec.Flops(n * 16)
		rec.Branches(n * 5)
		rec.IntOps(n * 10)
		// Straddling cells are read twice (one gather per clip pass) and
		// run the full two-sided subdivision arithmetic.
		rec.Loads(whole*8*32+straddle*2*8*32, ops.Strided)
		rec.Stores(whole*(8*32+8*4), ops.Stream)
		rec.Flops(straddle * 6 * 120) // two clip chains per tet
		rec.IntOps(straddle * 6 * 60)
		rec.Branches(straddle * 6 * 16)
		rec.Stores(pieces*4*36, ops.Stream)
	})

	out, preWeld := col.ReleaseWelded(1e-9)
	rec := ex.Rec(0)
	rec.IntOps(uint64(preWeld) * 8) // weld hashing
	rec.LoadsN(uint64(preWeld), 32, ops.Random)
	rec.WorkingSet(uint64(len(field))*8 + uint64(len(out.Points))*40)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
