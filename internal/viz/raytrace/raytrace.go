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
	"image"
	"math"
	"sync/atomic"

	"repro/internal/mesh"
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

// GatherScene extracts the external faces of the grid, builds the BVH,
// and charges both stages to ex.
func GatherScene(g *mesh.UniformGrid, field string, ex *viz.Exec) (*Scene, error) {
	if g.CellField(field) == nil && g.PointField(field) == nil {
		return nil, fmt.Errorf("raytrace: grid has no field %q", field)
	}
	tris, err := mesh.GridExternalFaces(g, field)
	if err != nil {
		return nil, err
	}
	scene := NewSceneWith(tris, ex.Pool)
	ex.Charge(gatherCost(uint64(g.NumCells()), uint64(tris.NumTris()), uint64(tris.NumPoints()), uint64(scene.BVH.NumNodes())))
	return scene, nil
}

// Background is the canvas color behind the traced surface.
var Background = render.Color{0.08, 0.08, 0.10, 1}

// RenderInto traces one image from cam into a caller-provided framebuffer
// (reset here, to Background with infinite depth), allocating one only
// when im is nil or the wrong size, and charges the frame to ex. The
// orbit reuses one image per worker across its 50 frames
// (viz.RenderOrbit).
func (s *Scene) RenderInto(im *render.Image, cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	if im == nil || im.W != w || im.H != h {
		im = render.NewImage(w, h)
	} else {
		im.Reset()
	}
	im.Fill(Background)
	light := cam.Eye.Sub(cam.Look).Normalize()
	// One camera frame for the whole image; per-pixel ray setup is then
	// a handful of multiply-adds.
	fr := cam.Frame(w, h)
	// The frame's counts, one allocation for the loop body to capture.
	var n struct{ nodes, tests, hits atomic.Uint64 }
	// Only the pixels of the root box's footprint are traced. Each ray
	// outside it would have visited the root and missed it: that visit
	// is still charged, so the frame is priced as if traced whole.
	var fp image.Rectangle
	if root, ok := s.BVH.Root(); ok {
		fp = fr.Footprint(&root)
		n.nodes.Store(uint64(w*h - fp.Dx()*fp.Dy()))
	}
	fw := fp.Dx()

	ex.Pool.For(fw*fp.Dy(), 0, func(lo, hi, _ int) {
		var stats TraverseStats
		var lit uint64
		for k := lo; k < hi; k++ {
			px, py := fp.Min.X+k%fw, fp.Min.Y+k/fw
			pix := py*w + px
			dx, dy, dz := fr.Ray(px, py)
			hit, ok := s.BVH.Intersect(s.Tris, fr.Eye, mesh.Vec3{dx, dy, dz}, &stats)
			if !ok {
				continue
			}
			lit++
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
		n.nodes.Add(uint64(stats.NodesVisited))
		n.tests.Add(uint64(stats.TriTests))
		n.hits.Add(lit)
	})
	ex.Charge(frameCost(uint64(w*h), n.nodes.Load(), n.tests.Load(), n.hits.Load()))
	return im
}

// Run implements viz.Filter: gather + build once, then trace the orbit
// image database, its frames as pool tasks.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	scene, err := GatherScene(g, f.opts.Field, ex)
	if err != nil {
		return nil, err
	}
	viz.RenderOrbit(ex, g.Bounds(), f.opts.Images, f.opts.Width, f.opts.Height, scene.RenderInto)
	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Images:   f.opts.Images,
	}, nil
}
