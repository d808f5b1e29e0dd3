package volren

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/render"
	"repro/internal/viz"
)

// RenderSegmentsReference is the straightforward sampler retained as the
// correctness oracle for the macrocell marcher and as the baseline of the
// render benchmarks: one world-space mesh.SampleScalarField lookup per
// sample (per-sample cell locate with its three divisions) and the
// branchy transfer-function evaluation, exactly as the workload was first
// written. The golden tests hold Renderer within 1e-6 per channel of
// this path.
func RenderSegmentsReference(im *render.Image, g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	if im == nil || im.W != w || im.H != h {
		im = render.NewImage(w, h)
	} else {
		im.Reset()
	}
	b := g.Bounds()
	step := math.Min(g.Spacing[0], math.Min(g.Spacing[1], g.Spacing[2])) * 0.75

	ex.Rec(0).Launch()
	ex.Pool.For(w*h, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var samples uint64
		for pix := lo; pix < hi; pix++ {
			px, py := pix%w, pix/w
			orig, dir := cam.Ray(px, py, w, h)
			t0, t1, ok := mesh.RayBox(orig, dir, b)
			if !ok {
				continue
			}
			var cr, cg, cb, alpha float64
			for t := t0 + step*0.5; t < t1; t += step {
				p := orig.Add(dir.Scale(t))
				v, ok := mesh.SampleScalarField(g, field, p)
				if !ok {
					continue
				}
				samples++
				col, a := tf.Eval(v)
				// Front-to-back compositing. The blend weight is wgt, not
				// w — that name is the image width captured above.
				wgt := (1 - alpha) * a
				cr += wgt * col[0]
				cg += wgt * col[1]
				cb += wgt * col[2]
				alpha += wgt
				if alpha > 0.99 {
					break
				}
			}
			im.Pix[pix] = render.Color{cr, cg, cb, alpha}
		}
		n := uint64(hi - lo)
		// Per sample: a trilinear reconstruction (8 corner loads from
		// the cache-hot volume, ~30 flops), a transfer-function lookup,
		// and the compositing blend.
		rec.Flops(samples*52 + n*18)
		rec.IntOps(samples*16 + n*8)
		rec.Branches(samples*4 + n*3)
		rec.Loads(samples*64, ops.Resident)
		rec.Stores(n*4, ops.Stream)
	})
	return im
}

// RenderImageReferenceInto is the reference sampler flattened over the
// background, with a reusable framebuffer.
func RenderImageReferenceInto(im *render.Image, g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	im = RenderSegmentsReference(im, g, field, tf, cam, w, h, ex)
	BlendBackground(im)
	return im
}
