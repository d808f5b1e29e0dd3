// Package contour implements the study's contour (isosurface) algorithm:
// for a three-dimensional scalar volume it extracts surfaces of constant
// value. The paper's VTK-m implementation uses Marching Cubes lookup
// tables; this implementation decomposes each hexahedral cell into six
// tetrahedra and applies marching tetrahedra, which preserves the
// per-cell iterate → classify → interpolate → emit-triangles structure and
// instruction mix with a case table small enough to verify exhaustively
// (see DESIGN.md). As in the paper, one visualization cycle evaluates 10
// isovalues.
package contour

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the scalar field to contour (point-centered; a cell field
	// of the same name is recentered automatically). Default "energy".
	Field string
	// Isovalues lists explicit isovalues. If empty, NumIsovalues values
	// are spread uniformly across the interior of the field range.
	Isovalues []float64
	// NumIsovalues is used when Isovalues is empty. Default 10 (the
	// paper's configuration).
	NumIsovalues int
	// Backend, when viz.DPP, makes Result.Profile the run's DPP profile
	// (Result.DPP) instead of its traditional one; it changes nothing
	// else. Every run is priced under both formulations: this option
	// only serves callers that want the DPP price in Profile.
	Backend viz.Backend
}

// Filter is the contour algorithm.
type Filter struct{ opts Options }

// New creates a contour filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	if opts.NumIsovalues <= 0 {
		opts.NumIsovalues = 10
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Contour" }

// SpreadIsovalues returns n isovalues uniformly spaced across the open
// interior of [lo, hi], and none for an empty range (lo > hi: a field
// without finite values, mesh.FieldRange).
func SpreadIsovalues(lo, hi float64, n int) []float64 {
	if lo > hi {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = lo + (hi-lo)*float64(i+1)/float64(n+1)
	}
	return out
}

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	field, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("contour: grid has no field %q", f.opts.Field)
	}
	isos := f.opts.Isovalues
	if len(isos) == 0 {
		lo, hi := mesh.FieldRange(field)
		isos = SpreadIsovalues(lo, hi, f.opts.NumIsovalues)
	}
	// Every isovalue of the cycle classifies against one row index and
	// reuses one emission's buffers.
	rows := indexRows(g, field, ex.Pool)
	out := &mesh.TriMesh{}
	var em mesh.KeyedEmission
	var dpp ops.Profile
	for _, iso := range isos {
		ContourField(g, field, field, rows, iso, &em, &dpp, ex, out)
	}
	res := &viz.Result{
		Profile:  ex.Drain(),
		DPP:      dpp,
		Elements: int64(g.NumCells()),
		Tris:     out,
	}
	if f.opts.Backend == viz.DPP {
		res.Profile = dpp
	}
	return res, nil
}

// ContourField appends the iso-surface of a point-field slice to out as
// indexed triangles and returns the soup point count a per-cell emission
// would write (three a triangle). carry is the scalar carried onto the
// surface (slice, which shares this entry point, contours a distance
// field carrying the data field); rows is field's row index; em is the
// emission whose buffers the launch reuses. The count classifies the
// cells of the rows whose range holds iso and notes the crossed ones for
// the fill; it is this host's sizing, not the paper's kernel, and is not
// charged. ex is charged the traditional price, over the crossed cells,
// and dpp, when non-nil, gains the DPP one, over the emitting cells.
func ContourField(g *mesh.UniformGrid, field, carry []float64, rows Rows, iso float64, em *mesh.KeyedEmission, dpp *ops.Profile, ex *viz.Exec, out *mesh.TriMesh) int {
	nx := g.Dims[0] - 1
	walk := func(lo, hi int, kw *mesh.KeyWindow) (crossed, emitting uint64) {
		var cc viz.CellContour
		if kw.Writing() {
			for _, c := range kw.Visited() {
				cell := g.WalkCells(int(c))
				emitting += uint64(min(cc.Emit(kw, &cell, field, carry, iso), 1))
			}
			return uint64(len(kw.Visited())), emitting
		}
		for r := lo / nx; r*nx < hi; r++ {
			if !rows[r].holds(iso) {
				continue
			}
			cell := g.WalkCells(r * nx)
			for end := (r + 1) * nx; cell.Cell < end; cell.Next() {
				if above, below := cell.Masks(field, iso, iso); above != 0 && below != 0 {
					kw.Visit(cell.Cell)
					cc.Emit(kw, &cell, field, carry, iso)
				}
			}
		}
		return 0, 0
	}
	em.Count(ex.Pool, g, viz.ClipSlots, walk)
	crossed, emitting := em.FillTris(walk, out)
	nCells, tris := uint64(g.NumCells()), uint64(em.Total.Cells)
	ex.Charge(tradCost(nCells, crossed, tris, uint64(len(field))))
	if dpp != nil {
		dpp.Add(dppCost(nCells, emitting, tris, uint64(len(field))))
	}
	return em.Soup.Points
}
