package dist

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
	"repro/internal/viz/volren"
)

// RankResult carries one rank's measured work, for the power-scheduling
// experiments (imbalanced slabs yield imbalanced profiles).
type RankResult struct {
	Rank    int
	Profile ops.Profile
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

// VolumeRenderWith is VolumeRender on a fabric with explicit Options
// (buffer capacity, send deadlines, fault injection). Every rank renders
// its slab's segments and rank 0 gathers and composites them; a rank
// failure cancels the whole composite and surfaces as an *AbortError
// naming the rank.
func VolumeRenderWith(g *mesh.UniformGrid, field string, nRanks int, cam render.Camera, w, h int, pool *par.Pool, opts Options) (*render.Image, []RankResult, error) {
	pf, err := g.EnsurePointField(field)
	if err != nil {
		return nil, nil, err
	}
	tf := volren.TransferFor(pf)
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
	err = comm.Run(func(ep *Endpoint) error {
		ex := viz.NewExec(pool)
		slab := slabs[ep.Rank()]
		slabField, err := slab.EnsurePointField(field)
		if err != nil {
			return err
		}
		payload := encodeSegments(volren.NewRenderer(slab, slabField, tf, ex).RenderSegmentsInto(nil, cam, w, h, ex))
		results[ep.Rank()] = RankResult{Rank: ep.Rank(), Profile: ex.Drain()}
		gathered, err := ep.Gather(0, 2, payload)
		if err != nil || ep.Rank() != 0 {
			return err
		}
		for _, payload := range gathered {
			if len(payload) != w*h*4 {
				return fmt.Errorf("bad payload size %d", len(payload))
			}
		}
		out = compositeSegments(gathered, nRanks, cam, w, h)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, results, nil
}

// compositeSegments blends the gathered segment images front to back.
func compositeSegments(gathered [][]float64, nRanks int, cam render.Camera, w, h int) *render.Image {
	final := render.NewImage(w, h)
	fr := cam.Frame(w, h) // one camera frame for the whole composite
	for p := 0; p < w*h; p++ {
		px, py := p%w, p/w
		_, _, dz := fr.Ray(px, py)
		var cr, cg, cb, alpha float64
		for k := 0; k < nRanks; k++ {
			r := k
			if dz < 0 {
				r = nRanks - 1 - k // near slab first: a -z ray enters the highest
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
}
