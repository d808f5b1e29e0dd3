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

	// One pre-weld mesh of exact size, counted and filled per GrainFixed
	// chunk as clip does (the hex corners are deduplicated per chunk); the
	// count takes the pieces from the corner masks alone (viz.ClipCount).
	nCells := g.NumCells()
	wins := make([]mesh.PointWindow, ex.Pool.Workers())
	em := mesh.Count(ex.Pool, nCells, par.GrainFixed(nCells), func(lo2, hi2, worker int) mesh.Sizes {
		win := &wins[worker]
		win.Reset(g, lo2, hi2)
		var at mesh.Sizes
		cell := g.WalkCells(lo2)
		for ; cell.Cell < hi2; cell.Next() {
			switch ge, le := cell.Masks(field, lo, hi); {
			case ge == 0 || le == 0:
			case ge == 0xFF && le == 0xFF:
				at.Points += win.Mark(&cell)
				at.Cells++
				at.Conn += 8
			default:
				n := viz.ClipCount(ge, le)
				at.Points += 4 * n
				at.Cells += n
				at.Conn += 4 * n
			}
		}
		return at
	})
	pre := em.Cells()

	straddlers, _ := em.Fill(func(lo2, hi2, worker int, at mesh.Sizes) (mesh.Sizes, uint64, uint64) {
		win := &wins[worker]
		win.Reset(g, lo2, hi2)
		w := mesh.CellWriter{Mesh: pre, Next: at}
		var ts [6]viz.Tet
		above := make([]viz.Tet, 0, 16)
		kept := make([]viz.Tet, 0, 16)
		var straddle uint64
		cell := g.WalkCells(lo2)
		for ; cell.Cell < hi2; cell.Next() {
			switch ge, le := cell.Masks(field, lo, hi); {
			case ge == 0 || le == 0:
				// Entirely outside the range: removed.
			case ge == 0xFF && le == 0xFF:
				// Entirely inside: pass the hex through.
				w.AddHex(&cell, field, win)
			default:
				// Straddling: clip tets against both range bounds.
				straddle++
				viz.CellTets(&cell, field, field, &ts)
				for i := range ts {
					above = ts[i].ClipAbove(lo, above[:0])
					kept = kept[:0]
					for _, a := range above {
						kept = a.ClipBelow(hi, kept)
					}
					for _, piece := range kept {
						var conn [4]int32
						for c := 0; c < 4; c++ {
							conn[c] = w.AddPoint(piece.P[c], piece.S[c])
						}
						w.AddCell(mesh.Tet, conn[:]...)
					}
				}
			}
		}
		return w.Next, straddle, 0
	})

	out := mesh.WeldPointsPool(pre, 1e-9, ex.Pool)
	ex.Charge(cost(uint64(nCells), straddlers, em.Total, uint64(len(field)), uint64(len(out.Points))))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
