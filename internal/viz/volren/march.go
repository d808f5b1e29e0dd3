package volren

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/render"
	"repro/internal/viz"
)

// Renderer is the accelerated volume-rendering hot path: a scalar volume
// with its macrocell grid, conservative per-brick opacity bounds, and the
// tabulated transfer function, ready to render any number of views. The
// orbit loop builds one Renderer and renders 50 frames through it; the
// per-frame work is then pure marching.
//
// Against the straightforward sampler (the test oracle,
// RenderSegmentsReference in reference_test.go) the marcher makes three
// changes, none of which alter the sampled image beyond floating-point
// rounding:
//
//   - rays march in index space: the per-sample world-space locate (three
//     divisions, a bounds check, and the eight-corner index build) becomes
//     three multiply-adds from precomputed per-ray parametric deltas plus
//     a fused eight-corner gather off one base index;
//   - the transfer function's colormap is a LUT (exact for the
//     piecewise-linear CoolWarm) instead of per-sample branch math;
//   - macrocells whose conservative opacity bound is zero are skipped:
//     the ray jumps over them sample by sample without touching the field
//     or the transfer function. The sample lattice (t0 + step/2 + k·step,
//     accumulated exactly like the reference) is preserved, so skipping
//     is exact — every skipped sample would have contributed zero.
type Renderer struct {
	g     *mesh.UniformGrid
	field []float64
	tf    render.TransferFunction
	lut   *render.TFLUT
	macro *MacroGrid
	amax  []float64
	step  float64
}

// NewRenderer builds the acceleration state (macrocell grid, opacity
// bounds, colormap LUT) for a volume + transfer function, recording the
// build pass into ex.
func NewRenderer(g *mesh.UniformGrid, field []float64, tf render.TransferFunction, ex *viz.Exec) *Renderer {
	return &Renderer{
		g:     g,
		field: field,
		tf:    tf,
		lut:   tf.LUT(),
		macro: BuildMacroGrid(g, field, DefaultBrick, ex),
		amax:  nil,
		step:  math.Min(g.Spacing[0], math.Min(g.Spacing[1], g.Spacing[2])) * 0.75,
	}
}

// amaxTable lazily evaluates the per-brick opacity bounds.
func (r *Renderer) amaxTable() []float64 {
	if r.amax == nil {
		r.amax = r.macro.OpacityBound(r.tf)
	}
	return r.amax
}

// Prepare forces every lazily-built table (the per-brick opacity bounds)
// so the Renderer becomes immutable and safe to share read-only across
// concurrent renders — the contract the serving daemon's derived-
// structure cache relies on. Returns r for chaining.
func (r *Renderer) Prepare() *Renderer {
	r.amaxTable()
	return r
}

// RenderSegmentsInto volume-renders one view into premultiplied RGBA
// (alpha = accumulated segment opacity, matching the reference sampler's
// contract for the sort-last compositor), reusing im when it fits.
func (r *Renderer) RenderSegmentsInto(im *render.Image, cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	if im == nil || im.W != w || im.H != h {
		im = render.NewImage(w, h)
	} else {
		im.Reset()
	}
	g := r.g
	b := g.Bounds()
	step := r.step
	fr := cam.Frame(w, h)
	cd := g.CellDims()
	cdf := [3]float64{float64(cd[0]), float64(cd[1]), float64(cd[2])}
	nx := g.Dims[0]
	nxy := g.Dims[0] * g.Dims[1]
	shift := r.macro.shift
	mdx, mdy := r.macro.dims[0], r.macro.dims[1]
	field := r.field
	lut := r.lut
	amax := r.amaxTable()

	ex.Rec(0).Launch()
	ex.Pool.For(w*h, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var samples, skipped, bricks, skippedBricks uint64
		for pix := lo; pix < hi; pix++ {
			px, py := pix%w, pix/w
			orig, dir := fr.Ray(px, py)
			t0, t1, ok := mesh.RayBox(orig, dir, b)
			if !ok {
				continue
			}
			// The ray in index space: position(t) = o + d·t in cell units.
			o0 := (orig[0] - g.Origin[0]) / g.Spacing[0]
			o1 := (orig[1] - g.Origin[1]) / g.Spacing[1]
			o2 := (orig[2] - g.Origin[2]) / g.Spacing[2]
			d0 := dir[0] / g.Spacing[0]
			d1 := dir[1] / g.Spacing[1]
			d2 := dir[2] / g.Spacing[2]
			// Reciprocals for the brick-exit parametric math.
			id0 := safeRecip(d0)
			id1 := safeRecip(d1)
			id2 := safeRecip(d2)
			var cr, cg, cb, alpha float64
			t := t0 + step*0.5
		march:
			for t < t1 {
				fx := o0 + d0*t
				fy := o1 + d1*t
				fz := o2 + d2*t
				if fx < 0 || fy < 0 || fz < 0 || fx > cdf[0] || fy > cdf[1] || fz > cdf[2] {
					// Grazing samples the reference locate would reject.
					t += step
					continue
				}
				ci := int(fx)
				if ci >= cd[0] {
					ci = cd[0] - 1
				}
				cj := int(fy)
				if cj >= cd[1] {
					cj = cd[1] - 1
				}
				ck := int(fz)
				if ck >= cd[2] {
					ck = cd[2] - 1
				}
				mbi, mbj, mbk := ci>>shift, cj>>shift, ck>>shift
				bid := (mbk*mdy+mbj)*mdx + mbi
				// Parametric exit of the current macrocell: the nearest
				// downstream brick-boundary crossing on any axis.
				tEx := t1
				if d0 > 0 {
					if ta := (float64((mbi+1)<<shift) - o0) * id0; ta < tEx {
						tEx = ta
					}
				} else if d0 < 0 {
					if ta := (float64(mbi<<shift) - o0) * id0; ta < tEx {
						tEx = ta
					}
				}
				if d1 > 0 {
					if ta := (float64((mbj+1)<<shift) - o1) * id1; ta < tEx {
						tEx = ta
					}
				} else if d1 < 0 {
					if ta := (float64(mbj<<shift) - o1) * id1; ta < tEx {
						tEx = ta
					}
				}
				if d2 > 0 {
					if ta := (float64((mbk+1)<<shift) - o2) * id2; ta < tEx {
						tEx = ta
					}
				} else if d2 < 0 {
					if ta := (float64(mbk<<shift) - o2) * id2; ta < tEx {
						tEx = ta
					}
				}
				if tEx <= t {
					// A sample landed exactly on a brick face; take one
					// step so the march always progresses.
					tEx = t + step
				}
				if amax[bid] == 0 {
					// Provably transparent: advance over the brick on the
					// exact sample lattice without sampling.
					skippedBricks++
					for t < tEx {
						t += step
						skipped++
					}
					continue
				}
				bricks++
				for t < tEx {
					uu := fx - float64(ci)
					vv := fy - float64(cj)
					ww := fz - float64(ck)
					base := ci + nx*cj + nxy*ck
					c000 := field[base]
					c100 := field[base+1]
					c010 := field[base+nx]
					c110 := field[base+nx+1]
					c001 := field[base+nxy]
					c101 := field[base+nxy+1]
					c011 := field[base+nxy+nx]
					c111 := field[base+nxy+nx+1]
					// Lerp order matches mesh.ScalarSampler exactly.
					c00 := c000 + uu*(c100-c000)
					c10 := c010 + uu*(c110-c010)
					c01 := c001 + uu*(c101-c001)
					c11 := c011 + uu*(c111-c011)
					c0 := c00 + vv*(c10-c00)
					c1 := c01 + vv*(c11-c01)
					v := c0 + ww*(c1-c0)
					samples++
					col, a := lut.Eval(v)
					// Front-to-back compositing.
					wgt := (1 - alpha) * a
					cr += wgt * col[0]
					cg += wgt * col[1]
					cb += wgt * col[2]
					alpha += wgt
					if alpha > 0.99 {
						break march
					}
					t += step
					if t >= tEx {
						break
					}
					fx = o0 + d0*t
					fy = o1 + d1*t
					fz = o2 + d2*t
					ci = int(fx)
					if ci >= cd[0] {
						ci = cd[0] - 1
					} else if ci < 0 {
						ci = 0
					}
					cj = int(fy)
					if cj >= cd[1] {
						cj = cd[1] - 1
					} else if cj < 0 {
						cj = 0
					}
					ck = int(fz)
					if ck >= cd[2] {
						ck = cd[2] - 1
					} else if ck < 0 {
						ck = 0
					}
				}
			}
			im.Pix[pix] = render.Color{cr, cg, cb, alpha}
		}
		n := uint64(hi - lo)
		// Per taken sample the demand matches the reference sampler: the
		// trilinear reconstruction and blend are identical arithmetic, the
		// LUT lerp replaces the normalize+colormap math flop for flop, and
		// the incremental index-space advance replaces the locate
		// divisions — same 52 flops and the same 8 corner loads (64
		// resident bytes). One branch per sample disappears with the
		// colormap's piecewise test. Per skipped sample only the lattice
		// advance remains; each visited brick adds its min/max consult and
		// exit math, with the macrocell table counted as resident loads —
		// it is the definition of a cache-hot structure.
		rec.Flops(samples*52 + skipped*1 + bricks*6 + n*18)
		rec.IntOps(samples*16 + bricks*14 + n*8)
		rec.Branches(samples*3 + skipped*1 + bricks*3 + n*3)
		rec.Loads(samples*64+(bricks+skippedBricks)*16, ops.Resident)
		rec.Stores(n*4, ops.Stream)
	})
	return im
}

// RenderImageInto renders one view and flattens it over the background.
func (r *Renderer) RenderImageInto(im *render.Image, cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	im = r.RenderSegmentsInto(im, cam, w, h, ex)
	BlendBackground(im)
	return im
}

// safeRecip mirrors mesh.SafeInvDir for a single component.
func safeRecip(x float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	return 1 / x
}
