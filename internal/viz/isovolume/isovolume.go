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

	// Counted then filled by k-layer, as clip does: every output point is
	// a grid point or a cut on the lattice, named by its key and written
	// once, where it is first emitted.
	nCells := g.NumCells()
	walk := func(lo2, hi2 int, kw *mesh.KeyWindow) (straddle, _ uint64) {
		var ts [6]viz.ClipTet
		above := make([]viz.ClipTet, 0, 16)
		kept := make([]viz.ClipTet, 0, 16)
		cell := g.WalkCells(lo2)
		for ; cell.Cell < hi2; cell.Next() {
			switch ge, le := cell.Masks(field, lo, hi); {
			case ge == 0 || le == 0:
				// Entirely outside the range: removed.
			case ge == 0xFF && le == 0xFF:
				// Entirely inside: pass the hex through.
				kw.Hex(&cell, field)
			default:
				// Straddling: clip tets against both range bounds.
				straddle++
				viz.CellClipTets(&cell, field, field, &ts)
				for i := range ts {
					above = ts[i].ClipAbove(lo, above[:0])
					kept = kept[:0]
					for _, a := range above {
						kept = a.ClipBelow(hi, kept)
					}
					for j := range kept {
						kept[j].Emit(kw, &cell, field, lo, hi)
					}
				}
			}
		}
		return straddle, 0
	}
	var em mesh.KeyedEmission
	em.Count(ex.Pool, g, viz.IsovolumeSlots, walk)
	out, straddlers, _ := em.Fill(walk)
	ex.Charge(cost(uint64(nCells), straddlers, em.Soup, uint64(len(field)), uint64(len(out.Points))))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
