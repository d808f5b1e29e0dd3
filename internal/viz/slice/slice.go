// Package slice implements the study's three-slice algorithm: the data
// set is cut by the x-y, y-z, and x-z planes through the domain center.
// As in VTK-m (and as the paper describes in §III-B5), each slice
// computes a signed-distance field from its plane on every point of the
// mesh — the compute-intensive part that gives slice a higher IPC than
// contour — and then runs the contour algorithm on that field at isovalue
// zero, carrying the data field onto the cut surface.
package slice

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/viz"
	"repro/internal/viz/contour"
)

// Plane is an oriented cutting plane.
type Plane struct {
	Point  mesh.Vec3
	Normal mesh.Vec3
}

// Options configures the filter.
type Options struct {
	// Field is the scalar carried onto the slices (point-centered; a
	// cell field is recentered). Default "energy".
	Field string
	// Planes lists the cutting planes. Empty selects the paper's three
	// axis-aligned planes through the domain center.
	Planes []Plane
}

// Filter is the three-slice algorithm.
type Filter struct{ opts Options }

// New creates a slice filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Slice" }

// DefaultPlanes returns the three axis-aligned planes through the center
// of b.
func DefaultPlanes(b mesh.Bounds) []Plane {
	c := b.Center()
	return []Plane{
		{Point: c, Normal: mesh.Vec3{0, 0, 1}}, // x-y plane
		{Point: c, Normal: mesh.Vec3{1, 0, 0}}, // y-z plane
		{Point: c, Normal: mesh.Vec3{0, 1, 0}}, // x-z plane
	}
}

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	carry, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("slice: %w", err)
	}
	planes := f.opts.Planes
	if len(planes) == 0 {
		planes = DefaultPlanes(g.Bounds())
	}

	nPts, nx := g.NumPoints(), g.Dims[0]
	dist := make([]float64, nPts)
	pointRows := make([]contour.RowRange, nPts/nx)
	out := &mesh.TriMesh{}
	var em mesh.KeyedEmission
	soup := 0
	for _, pl := range planes {
		n := pl.Normal.Normalize()
		if n == (mesh.Vec3{}) {
			return nil, fmt.Errorf("slice: zero plane normal")
		}
		// Signed-distance field for this plane on every mesh point, a row
		// of points at a time, with each row's range for the contour's row
		// index: an x-y or x-z plane crosses one layer of rows.
		ex.Pool.For(len(pointRows), 0, func(lo, hi, _ int) {
			for r := lo; r < hi; r++ {
				// The row's y and z hold along it; x is PointPosition's.
				p := g.PointPosition(r * nx)
				row := dist[r*nx : (r+1)*nx]
				for i := range row {
					p[0] = g.Origin[0] + float64(i)*g.Spacing[0]
					row[i] = p.Sub(pl.Point).Dot(n)
				}
				pointRows[r] = contour.RangeOf(row)
			}
		})
		ex.Charge(distanceCost(uint64(nPts)))
		// Contour the distance field at zero, carrying the data field.
		soup += contour.ContourField(g, dist, carry, contour.CellRows(g, pointRows), 0, &em, nil, ex, out)
	}

	ex.Charge(workingSet(uint64(nPts), uint64(soup)))
	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Tris:     out,
	}, nil
}
