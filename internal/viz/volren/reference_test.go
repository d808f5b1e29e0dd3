package volren

import (
	"math"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/render"
	"repro/internal/viz"
)

// RenderSegmentsReference is the straightforward sampler kept as the
// correctness oracle for the macrocell marcher: one world-space
// mesh.ScalarSampler probe per sample — no macrocells, no skipping, no
// index-space stepping — and the branchy transfer-function evaluation,
// exactly as the workload was first written. The golden tests hold
// Renderer within 1e-6 per channel of this path; the mesh tests hold
// the sampler bit for bit to the by-name definition of trilinear
// sampling (mesh/sample_oracle_test.go), which this oracle called
// directly when it shipped in the production tree.
func RenderSegmentsReference(im *render.Image, g *mesh.UniformGrid, field []float64, tf render.TransferFunction,
	cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	if im == nil || im.W != w || im.H != h {
		im = render.NewImage(w, h)
	} else {
		im.Reset()
	}
	b := g.Bounds()
	proto := mesh.ScalarSamplerFor(g, field)
	step := math.Min(g.Spacing[0], math.Min(g.Spacing[1], g.Spacing[2])) * 0.75

	fr := cam.Frame(w, h)
	var total atomic.Uint64
	ex.Pool.For(w*h, 0, func(lo, hi, _ int) {
		sampler := *proto
		var samples uint64
		for pix := lo; pix < hi; pix++ {
			px, py := pix%w, pix/w
			dx, dy, dz := fr.Ray(px, py)
			orig, dir := fr.Eye, mesh.Vec3{dx, dy, dz}
			t0, t1, ok := rayBox(orig, dir, b)
			if !ok {
				continue
			}
			var cr, cg, cb, alpha float64
			for t := t0 + step*0.5; t < t1; t += step {
				p := orig.Add(dir.Scale(t))
				v, ok := sampler.Sample(p)
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
		total.Add(samples)
	})
	// Per sample: a trilinear reconstruction (8 corner loads from the
	// cache-hot volume, ~30 flops), a transfer-function lookup, and the
	// compositing blend.
	samples, n := total.Load(), uint64(w*h)
	var p ops.Profile
	p.Launches = 1
	p.Flops = samples*52 + n*18
	p.IntOps = samples*16 + n*8
	p.Branches = samples*4 + n*3
	p.LoadBytes[ops.Resident] = samples * 64
	p.StoreBytes[ops.Stream] = n * 4
	ex.Charge(p)
	return im
}
