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
	"repro/internal/ops"
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
	ex.Rec(0).Launch()
	ex.Pool.For(nPts, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		for id := lo; id < hi; id++ {
			dist[id] = g.PointPosition(id).Sub(center).Norm() - radius
		}
		// Position reconstruction, three squares, a square root (counted
		// at its multi-op latency), and the subtraction, per point.
		n := uint64(hi - lo)
		rec.Flops(n * 22)
		rec.IntOps(n * 6)
		rec.Stores(n*8, ops.Stream)
	})

	// Pass 2: classify and clip cells.
	nCells := g.NumCells()
	grain := par.GrainFixed(nCells)
	col := mesh.AcquireCellCollector(ex.Pool)

	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		part := col.Seg(lo, worker)
		local := col.Local(worker)
		var ts [6]viz.Tet
		scratch := make([]viz.Tet, 0, 16)
		var whole, straddle, pieces uint64
		for cell := lo; cell < hi; cell++ {
			pts := g.CellPoints(cell)
			dmin, dmax := dist[pts[0]], dist[pts[0]]
			for c := 1; c < 8; c++ {
				d := dist[pts[c]]
				if d < dmin {
					dmin = d
				}
				if d > dmax {
					dmax = d
				}
			}
			switch {
			case dmax <= 0:
				// Entirely inside the sphere: culled.
			case dmin >= 0:
				// Entirely outside: pass the hex through.
				whole++
				var conn [8]int32
				for c, pid := range pts {
					id, ok := local[pid]
					if !ok {
						id = part.AddPoint(g.PointPosition(pid), carry[pid])
						local[pid] = id
					}
					conn[c] = id
				}
				part.AddCell(mesh.Hex, conn[0], conn[1], conn[2], conn[3], conn[4], conn[5], conn[6], conn[7])
			default:
				// Straddling: subdivide and keep the outside part.
				straddle++
				viz.CellTets(g, dist, carry, cell, &ts)
				for i := range ts {
					scratch = ts[i].ClipAbove(0, scratch[:0])
					for _, piece := range scratch {
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

		n := uint64(hi - lo)
		rec.Loads(n*8*8, ops.Strided) // 8 corner distances per cell
		rec.Flops(n * 16)
		rec.Branches(n * 4)
		rec.IntOps(n * 10)
		rec.Loads((whole+straddle)*8*32, ops.Strided)
		rec.Stores(whole*(8*32+8*4), ops.Stream)
		rec.Flops(straddle * 6 * 60) // tet assembly + clip interpolation
		rec.IntOps(straddle * 6 * 25)
		rec.Branches(straddle * 6 * 8)
		rec.Stores(pieces*4*36, ops.Stream)
	})

	out, preWeld := col.ReleaseWelded(1e-9)
	rec := ex.Rec(0)
	rec.IntOps(uint64(preWeld) * 8) // weld hashing
	rec.LoadsN(uint64(preWeld), 32, ops.Random)
	rec.WorkingSet(uint64(nPts)*16 + uint64(len(out.Points))*40)

	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(nCells),
		Cells:    out,
	}, nil
}
