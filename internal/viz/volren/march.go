package volren

import (
	"math"
	"sync/atomic"

	"repro/internal/mesh"
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
//   - the transfer function is evaluated inline in the sample loop, its
//     terms read into locals once per frame, and its colormap is a LUT
//     (exact for the piecewise-linear CoolWarm) instead of per-sample
//     branch math; a sample below the transparency threshold (or NaN)
//     contributes nothing, so it neither looks up a color nor blends;
//   - macrocells whose conservative opacity bound is zero are skipped:
//     the ray jumps over them sample by sample without touching the field
//     or the transfer function. The sample lattice (t0 + step/2 + k·step,
//     accumulated exactly like the reference) is preserved, so skipping
//     is exact — every skipped sample would have contributed zero.
type Renderer struct {
	g     *mesh.UniformGrid
	field []float64
	lut   *render.TFLUT
	macro *MacroGrid
	amax  []float64
	step  float64
}

// NewRenderer builds the acceleration state (macrocell grid, opacity
// bounds, colormap LUT) for a volume + transfer function, charging the
// build pass to ex.
func NewRenderer(g *mesh.UniformGrid, field []float64, tf render.TransferFunction, ex *viz.Exec) *Renderer {
	return &Renderer{
		g:     g,
		field: field,
		lut:   tf.LUT(),
		macro: BuildMacroGrid(g, field, DefaultBrick, ex),
		amax:  nil,
		step:  math.Min(g.Spacing[0], math.Min(g.Spacing[1], g.Spacing[2])) * 0.75,
	}
}

// amaxTable lazily evaluates the per-brick opacity bounds.
func (r *Renderer) amaxTable() []float64 {
	if r.amax == nil {
		r.amax = r.macro.OpacityBound(r.lut.TF)
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
	eyeX, eyeY, eyeZ := fr.Eye[0], fr.Eye[1], fr.Eye[2]
	cd := g.CellDims()
	cdf := [3]float64{float64(cd[0]), float64(cd[1]), float64(cd[2])}
	nx := g.Dims[0]
	nxy := g.Dims[0] * g.Dims[1]
	shift := r.macro.shift
	mdx, mdy := r.macro.dims[0], r.macro.dims[1]
	field := r.field
	amax := r.amaxTable()
	// The transfer function's terms, read once per frame; the sample loop
	// evaluates TransferFunction.Eval's normalize, clamp, threshold and
	// opacity ramp and the ColorLUT's three color lerps with them, in the
	// same operation order, so every sample is bit-identical to the
	// table's evaluation.
	tf, nodes, nseg := r.lut.TF, r.lut.Map.Nodes, r.lut.Map.N
	nlo, nspan, flat := tf.Norm.Lo, tf.Norm.Hi-tf.Norm.Lo, tf.Norm.Hi <= tf.Norm.Lo
	transparent, oscale := tf.Transparent, tf.OpacityScale
	first, last := nodes[0], nodes[len(nodes)-1]

	// Rays outside the footprint miss b and keep Reset's zero.
	fp := fr.Footprint(&b)
	fw := fp.Dx()

	// The frame's counts, one allocation for the loop body to capture.
	var n struct{ samples, skipped, bricks, skippedBricks atomic.Uint64 }
	ex.Pool.For(fw*fp.Dy(), 0, func(lo, hi, _ int) {
		var samples, skipped, bricks, skippedBricks uint64
		for k := lo; k < hi; k++ {
			px, py := fp.Min.X+k%fw, fp.Min.Y+k/fw
			pix := py*w + px
			dx, dy, dz := fr.Ray(px, py)
			t0, t1, ok := mesh.RaySlab(eyeX, eyeY, eyeZ, mesh.SafeRecip(dx), mesh.SafeRecip(dy), mesh.SafeRecip(dz), &b, 0, math.Inf(1))
			if !ok {
				continue
			}
			// The ray in index space: position(t) = o + d·t in cell units.
			o0 := (eyeX - g.Origin[0]) / g.Spacing[0]
			o1 := (eyeY - g.Origin[1]) / g.Spacing[1]
			o2 := (eyeZ - g.Origin[2]) / g.Spacing[2]
			d0 := dx / g.Spacing[0]
			d1 := dy / g.Spacing[1]
			d2 := dz / g.Spacing[2]
			// Reciprocals for the brick-exit parametric math.
			id0 := mesh.SafeRecip(d0)
			id1 := mesh.SafeRecip(d1)
			id2 := mesh.SafeRecip(d2)
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
					tn := 0.5
					if !flat {
						tn = (v - nlo) / nspan
						if tn < 0 {
							tn = 0
						} else if tn > 1 {
							tn = 1
						}
					}
					// A transparent sample (NaN included) would blend
					// zero weight: skipping it leaves the pixel's bits as
					// they are.
					if tn >= transparent {
						a := oscale * (0.02 + 0.98*tn*tn)
						if a > 1 {
							a = 1
						}
						var kr, kg, kb float64
						if x := tn * nseg; !(x > 0) {
							kr, kg, kb = first[0], first[1], first[2]
						} else if x >= nseg {
							kr, kg, kb = last[0], last[1], last[2]
						} else {
							i := int(x)
							u := x - float64(i)
							na, nb := &nodes[i], &nodes[i+1]
							kr = na[0] + u*(nb[0]-na[0])
							kg = na[1] + u*(nb[1]-na[1])
							kb = na[2] + u*(nb[2]-na[2])
						}
						// Front-to-back compositing.
						wgt := (1 - alpha) * a
						cr += wgt * kr
						cg += wgt * kg
						cb += wgt * kb
						alpha += wgt
						if alpha > 0.99 {
							break march
						}
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
		n.samples.Add(samples)
		n.skipped.Add(skipped)
		n.bricks.Add(bricks)
		n.skippedBricks.Add(skippedBricks)
	})
	ex.Charge(frameCost(uint64(w*h), n.samples.Load(), n.skipped.Load(), n.bricks.Load(), n.skippedBricks.Load()))
	return im
}

// RenderImageInto renders one view and flattens it over the background.
func (r *Renderer) RenderImageInto(im *render.Image, cam render.Camera, w, h int, ex *viz.Exec) *render.Image {
	im = r.RenderSegmentsInto(im, cam, w, h, ex)
	BlendBackground(im)
	return im
}
