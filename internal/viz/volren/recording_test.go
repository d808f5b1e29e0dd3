package volren

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/viz"
)

// volrenRecording is one transfer function's orbit frames pinned at a
// parent commit: the SHA-256 of the float64 bits of each frame's Pix, in
// frame order, and the operation profile drained after the renderer's
// build and every frame.
type volrenRecording struct {
	name    string
	n, res  int
	tf      func(lo, hi float64) render.TransferFunction
	pix     []string
	profile ops.Profile
}

// pixDigest hashes the exact bits of every channel of every pixel, so a
// one-ulp change anywhere in the frame changes the digest (the 1e-6
// reference bar of the golden tests cannot see a rounding change).
func pixDigest(im *render.Image) string {
	h := sha256.New()
	var w [8]byte
	for _, c := range im.Pix {
		for _, x := range c {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordingFrames are the orbit frames (of a ten-image orbit) rendered
// for each recording.
var recordingFrames = []int{0, 3, 7}

// The marcher's frames and profiles, recorded at the parent of the change
// that evaluates the transfer function inline in the sample loop (commit
// a4f35f1). The clamped case narrows the normalizer so samples clamp at
// both ends and lifts the opacity scale so alpha clamps at 1.
func TestRendererMatchesParentRecording(t *testing.T) {
	recs := []volrenRecording{
		{
			name: "transparent-0", n: 32, res: 64,
			tf: func(lo, hi float64) render.TransferFunction {
				return render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25}
			},
			pix:     []string{"27c3b60425d6592898d308c12ee0447b1843eb0fa4a28e351f88488f631a9bb0", "431ae0a22466b9c45af374ae0c7ee59964bd13d35c6b78365b6e1ceb0f3f5c47", "f0adb83ad554b5525e47cadeee4a603d7b12c068c93baa0eb63eceac9376faf4"},
			profile: ops.Profile{Flops: 3766716, IntOps: 1360796, Branches: 352362, LoadBytes: [4]uint64{373248, 0, 0, 4323616}, StoreBytes: [4]uint64{50176, 0, 0, 0}, Launches: 4},
		},
		{
			name: "transparent-0.35", n: 32, res: 64,
			tf: func(lo, hi float64) render.TransferFunction {
				return render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25, Transparent: 0.35}
			},
			pix:     []string{"76ab4b5f90309147f283d188b75a19a9bcdab1624829579b6f6ba2e72b2793e9", "d71c76b9bbc730b89e0308dfcff728fc310c35ef19e106a29d274d9e49bb989e", "c427f037e5be2c431904539c00939cbf418e2b72d8066c249f9af426fc36e280"},
			profile: ops.Profile{Flops: 2055162, IntOps: 770712, Branches: 273208, LoadBytes: [4]uint64{373248, 0, 0, 2208672}, StoreBytes: [4]uint64{50176, 0, 0, 0}, Launches: 4},
		},
		{
			name: "clamped", n: 32, res: 64,
			tf: func(lo, hi float64) render.TransferFunction {
				span := hi - lo
				return render.TransferFunction{Norm: render.Normalizer{Lo: lo + 0.2*span, Hi: hi - 0.2*span}, OpacityScale: 1.5, Transparent: 0.1}
			},
			pix:     []string{"21be5638dd3e1c9b3b9e904de14686d6a8cd02280966b5614ded44e0c3d2ec89", "6e98465ceee8f49912ac5a3c038c6c89c6c1fc534c9702cd8e70caee16cd5e62", "505fbf85d992732f8831fb6a59f00696f1816c43093667abbefa6d8e6e8f2104"},
			profile: ops.Profile{Flops: 2850916, IntOps: 1050544, Branches: 301456, LoadBytes: [4]uint64{373248, 0, 0, 3185216}, StoreBytes: [4]uint64{50176, 0, 0, 0}, Launches: 4},
		},
		{
			name: "transparent-0.35-64", n: 64, res: 128,
			tf: func(lo, hi float64) render.TransferFunction {
				return render.TransferFunction{Norm: render.Normalizer{Lo: lo, Hi: hi}, OpacityScale: 0.25, Transparent: 0.35}
			},
			pix:     []string{"e2e96f311e9761f0efcf6888de0c331c36cc85623b860ebdc10c0c1cfefabea4", "a657b9efe0bef4f4c2bcff6454bd8bf1b654f7d3f39e6277e671eaefa1c78c8a", "ca529660aa7669a39073c941c2f21322fdac275b37dd6aa7afe3a4a78fc8c1f7"},
			profile: ops.Profile{Flops: 9744780, IntOps: 3779372, Branches: 1748864, LoadBytes: [4]uint64{2985984, 0, 0, 10467808}, StoreBytes: [4]uint64{204800, 0, 0, 0}, Launches: 4},
		},
	}
	grids := map[int]*mesh.UniformGrid{}
	for _, rec := range recs {
		g := grids[rec.n]
		if g == nil {
			g = blobGrid(t, rec.n)
			grids[rec.n] = g
		}
		field := g.PointField("energy")
		lo, hi := mesh.FieldRange(field)
		for _, workers := range []int{1, 2} {
			pool := par.NewPool(workers)
			ex := viz.NewExec(pool)
			r := NewRenderer(g, field, rec.tf(lo, hi), ex).Prepare()
			var im *render.Image
			var pix []string
			for _, frame := range recordingFrames {
				cam, _ := render.OrbitView(g.Bounds(), frame, 10)
				im = r.RenderSegmentsInto(im, cam, rec.res, rec.res, ex)
				pix = append(pix, pixDigest(im))
			}
			prof := ex.Drain()
			pool.Close()
			for i := range pix {
				if i >= len(rec.pix) || pix[i] != rec.pix[i] {
					t.Errorf("%s at %d workers, frame %d: pixels %s differ from the recording", rec.name, workers, recordingFrames[i], pix[i])
				}
			}
			if prof != rec.profile {
				t.Errorf("%s at %d workers:\n got %#v\nwant %#v", rec.name, workers, prof, rec.profile)
			}
		}
	}
}
