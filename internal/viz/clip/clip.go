// Package clip implements the study's spherical clip algorithm: geometry
// within a sphere (given by origin and radius) is culled. Cells entirely
// inside the sphere are omitted, cells entirely outside pass through
// unchanged, and straddling cells are subdivided into tetrahedra and
// clipped against the sphere surface, keeping the outside part — exactly
// the cell-classification structure the paper describes (§III-B3).
package clip

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the scalar carried onto the output for coloring
	// (point-centered; a cell field is recentered). Default "energy".
	Field string
	// Center is the sphere origin. The zero value selects the grid
	// center.
	Center mesh.Vec3
	// Radius is the sphere radius. Zero selects 30% of the bounds
	// diagonal.
	Radius float64
}

// Filter is the spherical-clip algorithm.
type Filter struct{ opts Options }

// New creates a spherical clip filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Spherical Clip" }

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	carry, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("clip: %w", err)
	}
	center := f.opts.Center
	if center == (mesh.Vec3{}) {
		center = g.Bounds().Center()
	}
	radius := f.opts.Radius
	if radius <= 0 {
		radius = 0.3 * g.Bounds().Diagonal()
	}

	// Pass 1: signed distance from the sphere at every point (negative
	// inside). One kernel launch streaming the coordinates.
	nPts := g.NumPoints()
	dist := make([]float64, nPts)
	ex.Pool.For(nPts, 0, func(lo, hi, _ int) {
		for id := lo; id < hi; id++ {
			dist[id] = g.PointPosition(id).Sub(center).Norm() - radius
		}
	})

	// Pass 2: classify and clip cells, counted then filled by k-layer.
	// Every output point is a grid point or a cut on a lattice edge, named
	// by its key, so each is written once, where it is first emitted.
	nCells := g.NumCells()
	walk := func(lo, hi int, kw *mesh.KeyWindow) (straddle uint64) {
		var ts [6]viz.ClipTet
		pieces := make([]viz.ClipTet, 0, 16)
		cell := g.WalkCells(lo)
		for ; cell.Cell < hi; cell.Next() {
			switch above, below := cell.Masks(dist, 0, 0); {
			case below == 0xFF:
				// Entirely inside the sphere: culled.
			case above == 0xFF:
				// Entirely outside: pass the hex through.
				kw.Hex(&cell, carry)
			default:
				// Straddling: subdivide and keep the outside part.
				straddle++
				viz.CellClipTets(&cell, dist, carry, &ts)
				for i := range ts {
					pieces = ts[i].ClipAbove(0, pieces[:0])
					for j := range pieces {
						pieces[j].Emit(kw, &cell, nil, 0, 0)
					}
				}
			}
		}
		return straddle
	}
	em := mesh.CountKeyed(ex.Pool, g, viz.ClipSlots, walk)
	out, straddlers := em.Fill(walk)
	ex.Charge(cost(uint64(nPts), uint64(nCells), straddlers, em.Soup, uint64(len(out.Points))))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
