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
}

// TransferFor is the study transfer function over field's scalar range.
// Callers wanting the transparency threshold set Transparent on the
// result; a distributed render passes the whole field, not a slab, so
// every rank colours alike.
func TransferFor(field []float64) render.TransferFunction {
	lo, hi := mesh.FieldRange(field)
	return render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25}
}

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

// Run implements viz.Filter.
func (f *Filter) Run(g *mesh.UniformGrid, ex *viz.Exec) (*viz.Result, error) {
	field, err := g.EnsurePointField(f.opts.Field)
	if err != nil {
		return nil, fmt.Errorf("volren: %w", err)
	}
	// The acceleration state (macrocell grid + LUT) is built once and
	// amortized over the whole 50-image orbit; Prepare makes it read-only
	// before the frames render concurrently.
	r := NewRenderer(g, field, TransferFor(field), ex).Prepare()
	viz.RenderOrbit(ex, g.Bounds(), f.opts.Images, f.opts.Width, f.opts.Height, r.RenderImageInto)
	ex.Charge(workingSet(uint64(len(field))))
	return &viz.Result{
		Profile:  ex.Drain(),
		Elements: int64(g.NumCells()),
		Images:   f.opts.Images,
	}, nil
}
