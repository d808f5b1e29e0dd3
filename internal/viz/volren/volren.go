// Package volren implements the study's volume-rendering workload: rays
// step through the scalar volume at regular intervals, each sample is
// mapped through a transfer function to a color with transparency, and
// the samples along a ray are blended front to back into the final pixel.
// As in the paper, one visualization cycle renders an image database of
// 50 camera positions orbiting the data set. The dense per-sample
// floating-point work (trilinear reconstruction + blending) over a
// cache-hot volume makes this the highest-IPC, highest-power algorithm of
// the eight — the archetypal power-sensitive workload.
//
// Two samplers live here. The hot path (Renderer, march.go) marches rays
// incrementally in index space with macrocell empty-space skipping and a
// tabulated transfer function; the straightforward world-space sampler
// (reference.go) is retained as the correctness oracle — golden tests
// hold the fast path within 1e-6 per channel of it.
package volren

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/render"
	"repro/internal/viz"
)

// Options configures the filter.
type Options struct {
	// Field is the scalar volume rendered (point-centered; a cell field
	// is recentered). Default "energy".
	Field string
	// Images is the number of orbit camera positions. Default 50.
	Images int
	// Width and Height are the image resolution. Default 128×128.
	Width, Height int
	// Sink, when non-nil, receives every rendered image together with
	// its orbit azimuth — the hook the image-database (Cinema-style)
	// writer uses. Images are otherwise discarded after accounting.
	Sink func(index int, azimuthRad float64, im *render.Image)
}

// opacityScale tunes the filter's transfer function.
const opacityScale = 0.25

// Filter is the volume-rendering workload.
type Filter struct{ opts Options }

// New creates a volume-rendering filter.
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
func (f *Filter) Name() string { return "Volume Rendering" }

// Background is the canvas color behind the volume.
var Background = render.Color{0.06, 0.06, 0.08, 1}

// RenderSegments volume-renders one view into premultiplied RGBA without
// background blending: the alpha channel carries the accumulated opacity
// of this grid's ray segment. The sort-last distributed compositor blends
// per-rank segment images front to back; single-node rendering blends one
// segment over the background (RenderImage).
func RenderSegments(g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	return RenderSegmentsInto(nil, g, field, tf, cam, w, h, ex)
}

// RenderSegmentsInto is RenderSegments rendering into a caller-provided
// framebuffer (reset here), allocating one only when im is nil. It runs
// the accelerated marcher, building the acceleration state for this one
// call; loops rendering many views of the same volume should build a
// Renderer once instead.
func RenderSegmentsInto(im *render.Image, g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	return NewRenderer(g, field, tf, ex).RenderSegmentsInto(im, cam, w, h, ex)
}

// BlendBackground flattens a premultiplied segment image over the canvas.
func BlendBackground(im *render.Image) {
	for i, c := range im.Pix {
		a := c[3]
		im.Pix[i] = render.Color{
			c[0] + (1-a)*Background[0],
			c[1] + (1-a)*Background[1],
			c[2] + (1-a)*Background[2],
			1,
		}
	}
}

// RenderImage volume-renders one view, recording the sampling work.
func RenderImage(g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	im := RenderSegments(g, field, tf, cam, w, h, ex)
	BlendBackground(im)
	return im
}

// RenderImageInto is RenderImage with a reusable framebuffer (see
// RenderSegmentsInto).
func RenderImageInto(im *render.Image, g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	im = RenderSegmentsInto(im, g, field, tf, cam, w, h, ex)
	BlendBackground(im)
	return im
}

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	field, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("volren: %w", err)
	}
	lo, hi := mesh.FieldRange(field)
	tf := render.TransferFunction{
		Norm:         render.Normalizer{Lo: lo, Hi: hi},
		OpacityScale: opacityScale,
	}
	b := g.Bounds()
	// The acceleration state (macrocell grid + LUT) is built once and
	// amortized over the whole 50-image orbit.
	r := NewRenderer(g, field, tf, ex)
	// With no sink retaining frames, the whole orbit reuses one
	// framebuffer; a sink may hold the image past the frame, so it gets a
	// fresh one each time.
	var reuse *render.Image
	for i := 0; i < f.opts.Images; i++ {
		az := 2 * math.Pi * float64(i) / float64(f.opts.Images)
		cam := render.OrbitCamera(b, az, 0.35, 2.0)
		if f.opts.Sink != nil {
			f.opts.Sink(i, az, r.RenderImageInto(nil, cam, f.opts.Width, f.opts.Height, ex))
		} else {
			reuse = r.RenderImageInto(reuse, cam, f.opts.Width, f.opts.Height, ex)
		}
	}
	// Rays resample the whole volume every image: the working set is the
	// full point field (this is what overflows the LLC at 256³ and
	// produces the paper's Fig. 5 IPC drop).
	ex.Rec(0).WorkingSet(uint64(len(field)) * 8)
	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Images:   f.opts.Images,
	}, nil
}
