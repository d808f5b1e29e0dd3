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
	// Backend selects the traditional scratch-mesh implementation
	// (default) or the data-parallel-primitive count → scan → emit
	// formulation. Both produce bit-identical output.
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

// Backend implements viz.BackendProvider.
func (f *Filter) Backend() viz.Backend { return f.opts.Backend }

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
	out := &mesh.TriMesh{}
	for _, iso := range isos {
		if f.opts.Backend == viz.DPP {
			ContourFieldDPP(g, field, field, iso, ex, out)
		} else {
			ContourField(g, field, field, iso, ex, out)
		}
	}
	res := &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Tris:     out,
	}
	return res, nil
}

// ContourField extracts the iso-surface of a point-field slice and appends
// the triangles to out. carry supplies the scalar carried onto the surface
// for coloring (pass field itself to color by the contoured value). This
// entry point is shared with the slice filter, which contours a signed
// distance field while carrying the data field.
func ContourField(g *mesh.UniformGrid, field, carry []float64, iso float64, ex *viz.Exec, out *mesh.TriMesh) {
	nCells := g.NumCells()
	grain := par.GrainFor(nCells, ex.Pool.Workers())
	col := mesh.AcquireTriCollector(ex.Pool)

	ex.Rec(0).Launch()
	ex.Pool.For(nCells, grain, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		part := col.Seg(lo, worker)
		var ts [6]viz.Tet
		var crossed, tris uint64
		for cell := lo; cell < hi; cell++ {
			// Quick range rejection on the eight corner values.
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
			if iso < vmin || iso > vmax {
				continue
			}
			crossed++
			viz.CellTets(g, field, carry, cell, &ts)
			for i := range ts {
				ts[i].Contour(iso, func(p0, p1, p2 mesh.Vec3, s0, s1, s2 float64) {
					base := int32(len(part.Points))
					part.Points = append(part.Points, p0, p1, p2)
					part.Scalars = append(part.Scalars, s0, s1, s2)
					part.Tris = append(part.Tris, [3]int32{base, base + 1, base + 2})
					tris++
				})
			}
		}

		// Operation accounting for this chunk: every cell gathers its 8
		// corner scalars (strided through the point array) and runs the
		// min/max rejection; crossed cells additionally gather positions,
		// build 6 tets, and classify 24 corners; each triangle costs 3
		// edge interpolations and a streamed store.
		n := uint64(hi - lo)
		rec.Loads(n*8*8, ops.Strided)
		rec.Flops(n * 16)
		rec.IntOps(n * 12)
		rec.Branches(n * 3)
		rec.Loads(crossed*8*24, ops.Strided) // corner positions
		rec.Flops(crossed * 6 * 12)          // per-tet classification
		rec.IntOps(crossed * 6 * 10)
		rec.Branches(crossed * 6 * 4)
		rec.Flops(tris * 3 * 9) // edge lerps
		rec.Stores(tris*3*32, ops.Stream)
	})

	pts, _ := col.Release(out)
	rec := ex.Rec(0)
	// The launch working set is the field plus the surface emitted by this
	// call — not the whole of out, which accumulates across the 10
	// isovalues of a cycle.
	rec.WorkingSet(uint64(len(field))*8 + uint64(pts)*32)
}
