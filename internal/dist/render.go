package dist

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/raytrace"
	"repro/internal/viz/volren"
)

// RankResult carries one rank's measured work, for the power-scheduling
// experiments (imbalanced slabs yield imbalanced profiles).
type RankResult struct {
	Rank    int
	Profile ops.Profile
}

// sortLast is the skeleton both sort-last compositors share: cut g into
// nRanks z-slabs, run renderRank on every rank of one fabric (its Exec's
// drained profile becomes that rank's RankResult), gather the per-rank
// payloads on rank 0, check each is payloadLen floats, and composite them
// there. A rank failure cancels the whole composite and surfaces as an
// *AbortError naming the rank.
func sortLast(g *mesh.UniformGrid, nRanks, tag, payloadLen int, pool *par.Pool, opts Options,
	renderRank func(slab *mesh.UniformGrid, ex *viz.Exec) ([]float64, error),
	composite func(gathered [][]float64) *render.Image) (*render.Image, []RankResult, error) {
	slabs, err := mesh.SlabDecompose(g, nRanks)
	if err != nil {
		return nil, nil, err
	}
	comm, err := NewCommWith(nRanks, opts)
	if err != nil {
		return nil, nil, err
	}
	results := make([]RankResult, nRanks)
	var out *render.Image
	var outMu sync.Mutex
	err = comm.Run(func(ep *Endpoint) error {
		ex := viz.NewExec(pool)
		payload, err := renderRank(slabs[ep.Rank()], ex)
		if err != nil {
			return err
		}
		results[ep.Rank()] = RankResult{Rank: ep.Rank(), Profile: ex.Drain()}
		gathered, err := ep.Gather(0, tag, payload)
		if err != nil {
			return err
		}
		if ep.Rank() != 0 {
			return nil
		}
		for _, payload := range gathered {
			if len(payload) != payloadLen {
				return fmt.Errorf("bad payload size %d", len(payload))
			}
		}
		final := composite(gathered)
		outMu.Lock()
		out = final
		outMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, results, nil
}

// encodeSurface flattens an image with depth to the fabric payload
// (r, g, b, a, depth per pixel).
func encodeSurface(im *render.Image) []float64 {
	out := make([]float64, 0, len(im.Pix)*5)
	for i, c := range im.Pix {
		out = append(out, c[0], c[1], c[2], c[3], im.Depth[i])
	}
	return out
}

// RayTrace renders the scene with nRanks ranks, each owning one z-slab,
// and composites by nearest depth (sort-last surface compositing). The
// result matches the single-node rendering: every exterior surface
// triangle belongs to exactly one rank, and the interior partition walls
// each rank's slab adds are always occluded by the true surface.
func RayTrace(g *mesh.UniformGrid, field string, nRanks int, cam render.Camera, w, h int, pool *par.Pool) (*render.Image, []RankResult, error) {
	return RayTraceWith(g, field, nRanks, cam, w, h, pool, Options{})
}

// RayTraceWith is RayTrace on a fabric with explicit Options (buffer
// capacity, send deadlines, fault injection).
func RayTraceWith(g *mesh.UniformGrid, field string, nRanks int, cam render.Camera, w, h int, pool *par.Pool, opts Options) (*render.Image, []RankResult, error) {
	// Global color normalization: every rank must map scalars to colors
	// identically, so the range comes from the whole field, not a slab.
	pf, err := g.EnsurePointField(field)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := mesh.FieldRange(pf)
	norm := render.Normalizer{Lo: lo, Hi: hi}
	return sortLast(g, nRanks, 1, w*h*5, pool, opts,
		func(slab *mesh.UniformGrid, ex *viz.Exec) ([]float64, error) {
			scene, err := raytrace.GatherScene(slab, field, ex)
			if err != nil {
				return nil, err
			}
			scene.Norm = norm
			return encodeSurface(scene.RenderInto(nil, cam, w, h, ex)), nil
		},
		func(gathered [][]float64) *render.Image {
			final := render.NewImage(w, h)
			final.Fill(raytrace.Background)
			for _, payload := range gathered {
				for p := 0; p < w*h; p++ {
					d := payload[p*5+4]
					if d < final.Depth[p] && !math.IsInf(d, 1) {
						final.Depth[p] = d
						final.Pix[p] = render.Color{payload[p*5], payload[p*5+1], payload[p*5+2], payload[p*5+3]}
					}
				}
			}
			return final
		})
}

// encodeSegments flattens a premultiplied segment image (r, g, b, a).
func encodeSegments(im *render.Image) []float64 {
	out := make([]float64, 0, len(im.Pix)*4)
	for _, c := range im.Pix {
		out = append(out, c[0], c[1], c[2], c[3])
	}
	return out
}

// VolumeRender renders the volume with nRanks z-slab ranks and composites
// the per-rank ray segments front to back (sort-last ordered alpha
// compositing). For axis-aligned slabs the per-pixel order is slab order
// when the ray points toward +z and the reverse otherwise. The transfer
// function is built from the global field range so every rank colors
// identically.
func VolumeRender(g *mesh.UniformGrid, field string, nRanks int, cam render.Camera, w, h int, pool *par.Pool) (*render.Image, []RankResult, error) {
	return VolumeRenderWith(g, field, nRanks, cam, w, h, pool, Options{})
}

// VolumeRenderWith is VolumeRender on a fabric with explicit Options.
func VolumeRenderWith(g *mesh.UniformGrid, field string, nRanks int, cam render.Camera, w, h int, pool *par.Pool, opts Options) (*render.Image, []RankResult, error) {
	pf, err := g.EnsurePointField(field)
	if err != nil {
		return nil, nil, err
	}
	tf := volren.TransferFor(pf)
	return sortLast(g, nRanks, 2, w*h*4, pool, opts,
		func(slab *mesh.UniformGrid, ex *viz.Exec) ([]float64, error) {
			slabField, err := slab.EnsurePointField(field)
			if err != nil {
				return nil, err
			}
			return encodeSegments(volren.NewRenderer(slab, slabField, tf, ex).RenderSegmentsInto(nil, cam, w, h, ex)), nil
		},
		func(gathered [][]float64) *render.Image {
			final := render.NewImage(w, h)
			fr := cam.Frame(w, h) // one camera frame for the whole composite
			for p := 0; p < w*h; p++ {
				px, py := p%w, p/w
				_, dir := fr.Ray(px, py)
				var cr, cg, cb, alpha float64
				for k := 0; k < nRanks; k++ {
					r := k
					if dir[2] < 0 {
						r = nRanks - 1 - k // far slabs first along -z rays
					}
					seg := gathered[r]
					sa := seg[p*4+3]
					if sa == 0 {
						continue
					}
					weight := 1 - alpha
					cr += weight * seg[p*4]
					cg += weight * seg[p*4+1]
					cb += weight * seg[p*4+2]
					alpha += weight * sa
				}
				final.Pix[p] = render.Color{cr, cg, cb, alpha}
			}
			volren.BlendBackground(final)
			return final
		})
}
