// Package raytrace implements the study's ray-tracing workload: gather
// the data set's triangles and external faces, build a spatial
// acceleration structure (a BVH), and trace one primary ray per pixel for
// an image database of 50 camera positions orbiting the data set. As the
// paper observes (§VI-B1), the data-intensive gather and build stages
// dominate the compute-intensive tracing, which is why ray tracing lands
// in the power-opportunity class despite an IPC above 1.
package raytrace

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field colors the surface. Default "energy".
	Field string
	// Images is the number of orbit camera positions. Default 50 (the
	// paper's image database size).
	Images int
	// Width and Height are the image resolution. Default 128×128.
	Width, Height int
}

// Filter is the ray-tracing workload.
type Filter struct{ opts Options }

// New creates a ray-tracing filter.
func New(opts Options) *Filter {
	if opts.Field == "" {
		opts.Field = "energy"
	}
	if opts.Images <= 0 {
		opts.Images = 50
	}
	if opts.Width <= 0 {
		opts.Width = 128
	}
	if opts.Height <= 0 {
		opts.Height = 128
	}
	return &Filter{opts: opts}
}

// Name implements viz.Filter.
func (f *Filter) Name() string { return "Ray Tracing" }

// Scene is the traceable form of a triangle mesh: geometry, acceleration
// structure, and the scalar normalization for coloring.
type Scene struct {
	Tris *mesh.TriMesh
	BVH  *BVH
	Norm render.Normalizer
}

// NewSceneWith builds a scene (BVH included) from a triangle mesh, with
// the BVH construction parallelized on pool (nil selects the default pool).
func NewSceneWith(tris *mesh.TriMesh, pool *par.Pool) *Scene {
	lo, hi := mesh.FieldRange(tris.Scalars)
	return &Scene{Tris: tris, BVH: BuildBVHWith(tris, pool), Norm: render.Normalizer{Lo: lo, Hi: hi}}
}

// GatherScene extracts the external faces of the grid (scanning every
// cell, as the paper's gather does), builds the BVH, and records the
// operation profile of both stages.
func GatherScene(g *mesh.UniformGrid, field string, ex *viz.Exec) (*Scene, error) {
	// Stage 1: scan all cells for boundary membership. On a structured
	// grid this is an index test, but it still streams the cell index
	// space and touches the scalar, which is the data-intensive gather
	// the paper identifies.
	nCells := g.NumCells()
	cf := g.CellField(field)
	pf := g.PointField(field)
	if cf == nil && pf == nil {
		return nil, fmt.Errorf("raytrace: grid has no field %q", field)
	}
	cd := g.CellDims()
	ex.Rec(0).Launch()
	boundary := make([]int64, ex.Pool.Workers())
	ex.Pool.For(nCells, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		cnt := int64(0)
		for cell := lo; cell < hi; cell++ {
			i, j, k := g.CellIJK(cell)
			if i == 0 || j == 0 || k == 0 || i == cd[0]-1 || j == cd[1]-1 || k == cd[2]-1 {
				cnt++
			}
			// Touch the scalar like the gather must.
			if cf != nil {
				_ = cf[cell]
			}
		}
		boundary[worker] += cnt
		n := uint64(hi - lo)
		rec.Loads(n*8, ops.Stream)
		rec.IntOps(n * 14)
		rec.Branches(n * 6)
	})

	tris, err := mesh.GridExternalFaces(g, field)
	if err != nil {
		return nil, err
	}
	nt := uint64(tris.NumTris())
	np := uint64(tris.NumPoints())
	rec := ex.Rec(0)
	rec.Loads(np*40, ops.Strided) // face point/scalar gather
	rec.Stores(nt*12+np*32, ops.Stream)

	// Stage 2: build the acceleration structure. The binned-SAH build does
	// ~n work per tree level — still n log n with random reordering
	// traffic, just with a smaller constant than the old per-level sort.
	ex.Rec(0).Launch()
	scene := NewSceneWith(tris, ex.Pool)
	logn := uint64(1)
	if nt > 1 {
		logn = uint64(math.Log2(float64(nt))) + 1
	}
	rec.IntOps(nt * logn * 8)
	rec.Flops(nt * logn * 4)
	rec.LoadsN(nt*logn/4, 64, ops.Random)
	rec.Stores(uint64(scene.BVH.NumNodes())*64, ops.Stream)
	// The hot footprint of the trace phase is the geometry plus the
	// acceleration structure; the gather pass streams the cell space once
	// and keeps nothing resident.
	rec.WorkingSet(nt*48 + uint64(scene.BVH.NumNodes())*64)
	return scene, nil
}

// Background is the canvas color behind the traced surface.
var Background = render.Color{0.08, 0.08, 0.10, 1}

// RenderInto traces one image from cam into a caller-provided framebuffer
// (reset here), allocating one only when im is nil or the wrong size, and
// records the traversal work into ex. The orbit loop reuses one image
// across all 50 frames.
func (s *Scene) RenderInto(im *render.Image, cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	if im == nil || im.W != w || im.H != h {
		im = render.NewImage(w, h)
	} else {
		im.Reset()
	}
	light := cam.Eye.Sub(cam.Look).Normalize()
	// One camera frame for the whole image; per-pixel ray setup is then
	// a handful of multiply-adds.
	fr := cam.Frame(w, h)

	ex.Rec(0).Launch()
	ex.Pool.For(w*h, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var stats TraverseStats
		var hits uint64
		for pix := lo; pix < hi; pix++ {
			px, py := pix%w, pix/w
			dx, dy, dz := fr.Ray(px, py)
			hit, ok := s.BVH.Intersect(s.Tris, fr.Eye, mesh.Vec3{dx, dy, dz}, &stats)
			if !ok {
				im.Pix[pix] = Background
				continue
			}
			hits++
			im.Depth[pix] = hit.T
			tr := s.Tris.Tris[hit.Tri]
			// Interpolate the scalar with barycentrics and shade
			// double-sided Lambertian.
			sc := s.Tris.Scalars[tr[0]]*(1-hit.U-hit.V) +
				s.Tris.Scalars[tr[1]]*hit.U +
				s.Tris.Scalars[tr[2]]*hit.V
			p0, p1, p2 := s.Tris.Points[tr[0]], s.Tris.Points[tr[1]], s.Tris.Points[tr[2]]
			n := p1.Sub(p0).Cross(p2.Sub(p0)).Normalize()
			lambert := math.Abs(n.Dot(light))
			c := render.CoolWarm(s.Norm.Norm(sc)).Scale(0.25 + 0.75*lambert)
			c[3] = 1
			im.Pix[pix] = c
		}
		n := uint64(hi - lo)
		rec.Flops(n*12 + uint64(stats.NodesVisited)*14 + uint64(stats.TriTests)*28 + hits*30)
		rec.IntOps(n*10 + uint64(stats.NodesVisited)*6)
		rec.Branches(n*3 + uint64(stats.NodesVisited)*3 + uint64(stats.TriTests)*4)
		rec.Loads(uint64(stats.NodesVisited)*64+uint64(stats.TriTests)*112, ops.Resident)
		rec.Stores(n*4, ops.Stream)
	})
	return im
}

// Run implements viz.Filter: gather + build once, then trace the orbit
// image database.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	scene, err := GatherScene(g, f.opts.Field, ex)
	if err != nil {
		return nil, err
	}
	var im *render.Image
	for i := 0; i < f.opts.Images; i++ {
		cam, _ := render.OrbitView(g.Bounds(), i, f.opts.Images)
		im = scene.RenderInto(im, cam, f.opts.Width, f.opts.Height, ex)
	}
	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Images:   f.opts.Images,
	}, nil
}
