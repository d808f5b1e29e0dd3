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
	"repro/internal/par"
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

	// Pass 2: classify and clip cells into one pre-weld mesh of exact
	// size: a count pass sizes each fixed chunk (unique corners of the
	// hexes kept whole, clipped pieces counted from the corner signs
	// alone), the fill writes every chunk at its offsets. The chunks are
	// GrainFixed because the hex corners are deduplicated per chunk.
	nCells := g.NumCells()
	wins := make([]mesh.PointWindow, ex.Pool.Workers())
	em := mesh.Count(ex.Pool, nCells, par.GrainFixed(nCells), func(lo, hi, worker int) mesh.Sizes {
		win := &wins[worker]
		win.Reset(g, lo, hi)
		var at mesh.Sizes
		cell := g.WalkCells(lo)
		for ; cell.Cell < hi; cell.Next() {
			switch above, below := cell.Masks(dist, 0, 0); {
			case below == 0xFF:
			case above == 0xFF:
				at.Points += win.Mark(&cell)
				at.Cells++
				at.Conn += 8
			default:
				n := viz.ClipCount(above, 0xFF)
				at.Points += 4 * n
				at.Cells += n
				at.Conn += 4 * n
			}
		}
		return at
	})
	pre := em.Cells()

	straddlers, _ := em.Fill(func(lo, hi, worker int, at mesh.Sizes) (mesh.Sizes, uint64, uint64) {
		win := &wins[worker]
		win.Reset(g, lo, hi)
		w := mesh.CellWriter{Mesh: pre, Next: at}
		var ts [6]viz.Tet
		scratch := make([]viz.Tet, 0, 16)
		var straddle uint64
		cell := g.WalkCells(lo)
		for ; cell.Cell < hi; cell.Next() {
			switch above, below := cell.Masks(dist, 0, 0); {
			case below == 0xFF:
				// Entirely inside the sphere: culled.
			case above == 0xFF:
				// Entirely outside: pass the hex through.
				w.AddHex(&cell, carry, win)
			default:
				// Straddling: subdivide and keep the outside part.
				straddle++
				viz.CellTets(&cell, dist, carry, &ts)
				for i := range ts {
					scratch = ts[i].ClipAbove(0, scratch[:0])
					for _, piece := range scratch {
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
	ex.Charge(cost(uint64(nPts), uint64(nCells), straddlers, em.Total, uint64(len(out.Points))))

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
