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
	"repro/internal/par"
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
// interior of [lo, hi].
func SpreadIsovalues(lo, hi float64, n int) []float64 {
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
	// Every isovalue of the cycle classifies against one row index.
	rows := indexRows(g, field, ex.Pool)
	out := &mesh.TriMesh{}
	var dpp ops.Profile
	for _, iso := range isos {
		ContourField(g, field, field, rows, iso, &dpp, ex, out)
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

// ContourField extracts the iso-surface of a point-field slice and appends
// the triangles to out. carry supplies the scalar carried onto the surface
// for coloring (pass field itself to color by the contoured value); rows
// is field's row index. This entry point is shared with the slice filter,
// which contours a signed distance field while carrying the data field.
//
// The surface is written once, at its exact size: a count pass classifies
// the cells of every row whose range holds iso from their corner scalars
// alone (crossing) and sizes each chunk, and the fill writes every chunk
// at its scanned offsets, visiting only the cells the count found crossed.
// The count pass is this host's sizing, not the paper's kernel, so it
// is not charged. The one fill counts both the cells each formulation
// visits, and the launch is priced both ways (cost.go): ex is charged
// the traditional formulation's price, over the crossed cells, and dpp,
// when non-nil, gains the DPP one's, over the emitting cells its
// per-cell count and scan single out.
func ContourField(g *mesh.UniformGrid, field, carry []float64, rows Rows, iso float64, dpp *ops.Profile, ex *viz.Exec, out *mesh.TriMesh) {
	nCells := g.NumCells()
	cross := make([]uint8, nCells)
	em := mesh.Count(ex.Pool, nCells, par.GrainFor(nCells, ex.Pool.Workers()), func(lo, hi, _ int) mesh.Sizes {
		tris := crossing(g, field, rows, iso, lo, hi, cross)
		return mesh.Sizes{Points: 3 * tris, Cells: tris}
	})
	em.GrowTris(out)

	crossed, emitting := em.Fill(func(lo, hi, _ int, at mesh.Sizes) (mesh.Sizes, uint64, uint64) {
		return fillTris(g, field, carry, iso, cross, lo, hi, out, at)
	})
	tris := uint64(em.Total.Cells)
	ex.Charge(tradCost(uint64(nCells), crossed, tris, uint64(len(field))))
	if dpp != nil {
		dpp.Add(dppCost(uint64(nCells), emitting, tris, uint64(len(field))))
	}
}

// triCounts is cellTriCount by corner mask: entry m is the triangle count
// of a cell whose corners at or above the isovalue are the bits of m
// (mesh.CellWalk.Masks). crossing looks it up.
var triCounts = func() (t [256]uint8) {
	for m := range t {
		var dv [8]float64
		for c := range dv {
			dv[c] = float64(m >> c & 1)
		}
		t[m] = uint8(cellTriCount(&dv, 1))
	}
	return t
}()

// cellTriCount classifies one cell from its eight corner scalars alone:
// the number of marching-tetrahedra triangles across the six-tet
// decomposition. It mirrors Tet.Contour's corner test (D >= iso counts
// as inside) without touching positions — the count pass needs no
// geometry.
func cellTriCount(dv *[8]float64, iso float64) int32 {
	var tris int32
	for _, tet := range viz.HexTets {
		ni := 0
		for _, c := range tet {
			if dv[c] >= iso {
				ni++
			}
		}
		switch ni {
		case 1, 3:
			tris++
		case 2:
			tris += 2
		}
	}
	return tris
}

// crossing classifies the cells [lo, hi) against iso from their corner
// values and returns their triangle count. It records each cell's class
// in cross: 0 where iso lies outside the corner range (the quick
// rejection), 1 + the cell's triangle count where it lies inside. Cells
// of rows whose range does not hold iso keep their 0 unvisited.
func crossing(g *mesh.UniformGrid, field []float64, rows Rows, iso float64, lo, hi int, cross []uint8) (tris int) {
	nx := g.Dims[0] - 1
	for r := lo / nx; r*nx < hi; r++ {
		if !rows[r].holds(iso) {
			continue
		}
		cell := g.WalkCells(max(lo, r*nx))
		for end := min(hi, (r+1)*nx); cell.Cell < end; cell.Next() {
			if above, below := cell.Masks(field, iso, iso); above != 0 && below != 0 {
				n := triCounts[above]
				cross[cell.Cell] = 1 + n
				tris += int(n)
			}
		}
	}
	return tris
}

// fillTris writes the triangles of the cells [lo, hi) that cross marks
// into out from offsets at (three fresh points per triangle, in cell
// order) and returns the offsets past them, the cells whose corner range
// holds iso and, of those, the cells that emit a triangle.
func fillTris(g *mesh.UniformGrid, field, carry []float64, iso float64, cross []uint8, lo, hi int, out *mesh.TriMesh, at mesh.Sizes) (end mesh.Sizes, crossed, emitting uint64) {
	var ts [6]viz.Tet
	p, t := at.Points, at.Cells
	for c := lo; c < hi; c++ {
		if cross[c] == 0 {
			continue
		}
		crossed++
		if cross[c] > 1 {
			emitting++
		}
		cell := g.WalkCells(c)
		viz.CellTets(&cell, field, carry, &ts)
		for i := range ts {
			ts[i].Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
				out.Points[p], out.Points[p+1], out.Points[p+2] = p0, p1, p2
				out.Scalars[p], out.Scalars[p+1], out.Scalars[p+2] = s0, s1, s2
				out.Tris[t] = [3]int32{int32(p), int32(p + 1), int32(p + 2)}
				p += 3
				t++
			})
		}
	}
	return mesh.Sizes{Points: p, Cells: t}, crossed, emitting
}
