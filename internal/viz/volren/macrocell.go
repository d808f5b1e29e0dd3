package volren

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/render"
	"repro/internal/viz"
)

// DefaultBrick is the macrocell edge length in cells. 8³ cells per brick
// keeps the min/max table tiny (a 256³ volume needs 32³ bricks = 512 KB)
// while each skipped brick saves up to ~10 full trilinear samples along a
// ray.
const DefaultBrick = 8

// MacroGrid is a min/max macrocell grid over a scalar point field: the
// volume is tiled into brick³-cell macrocells and each records the range
// of every point value that any trilinear sample inside it can touch
// (the brick's point hull, faces included). The ray marcher consults it
// to skip bricks whose conservative opacity bound is zero — the classic
// empty-space-skipping acceleration for volume rendering.
type MacroGrid struct {
	brick int
	shift uint // log2(brick); bricks are power-of-two sized so the hot path shifts instead of divides
	dims  [3]int
	mn    []float64
	mx    []float64
}

// Range returns the scalar bounds of one macrocell.
func (m *MacroGrid) Range(bid int) (lo, hi float64) { return m.mn[bid], m.mx[bid] }

// BuildMacroGrid scans the field once and computes per-brick min/max over
// each brick's point hull, in parallel over bricks, recording the pass
// (one launch, a streaming read of the field) into ex. brick is rounded
// up to a power of two; <= 0 selects DefaultBrick.
func BuildMacroGrid(g *mesh.UniformGrid, field []float64, brick int, ex *viz.Exec) *MacroGrid {
	if brick <= 0 {
		brick = DefaultBrick
	}
	shift := uint(0)
	for 1<<shift < brick {
		shift++
	}
	brick = 1 << shift
	cd := g.CellDims()
	m := &MacroGrid{
		brick: brick,
		shift: shift,
		dims: [3]int{
			(cd[0] + brick - 1) / brick,
			(cd[1] + brick - 1) / brick,
			(cd[2] + brick - 1) / brick,
		},
	}
	n := m.dims[0] * m.dims[1] * m.dims[2]
	m.mn = make([]float64, n)
	m.mx = make([]float64, n)
	nx, nxy := g.Dims[0], g.Dims[0]*g.Dims[1]

	ex.Rec(0).Launch()
	ex.Pool.For(n, 0, func(lo, hi, worker int) {
		rec := ex.Rec(worker)
		var pts uint64
		for bid := lo; bid < hi; bid++ {
			bi := bid % m.dims[0]
			rest := bid / m.dims[0]
			bj := rest % m.dims[1]
			bk := rest / m.dims[1]
			// The point hull of the brick's cells: cell c spans points
			// [c, c+1], so the hull is inclusive on both ends and the
			// shared faces belong to both neighboring bricks. That overlap
			// is what makes the range bound valid for samples landing
			// exactly on a brick face.
			i0, i1 := bi*brick, minInt((bi+1)*brick, cd[0])
			j0, j1 := bj*brick, minInt((bj+1)*brick, cd[1])
			k0, k1 := bk*brick, minInt((bk+1)*brick, cd[2])
			mn, mx := math.Inf(1), math.Inf(-1)
			for k := k0; k <= k1; k++ {
				for j := j0; j <= j1; j++ {
					base := i0 + nx*j + nxy*k
					for i := i0; i <= i1; i++ {
						v := field[base]
						base++
						if v < mn {
							mn = v
						}
						if v > mx {
							mx = v
						}
					}
				}
			}
			m.mn[bid] = mn
			m.mx[bid] = mx
			pts += uint64((i1 - i0 + 1) * (j1 - j0 + 1) * (k1 - k0 + 1))
		}
		nb := uint64(hi - lo)
		rec.Flops(pts * 2) // the two range comparisons per point
		rec.IntOps(nb*24 + pts*2)
		rec.Branches(pts * 2)
		rec.Loads(pts*8, ops.Stream)
		rec.Stores(nb*16, ops.Stream)
	})
	return m
}

// OpacityBound evaluates the transfer function's conservative per-brick
// opacity bound (render.TransferFunction.MaxOpacity over each brick's
// scalar range). A zero entry proves the brick fully transparent.
func (m *MacroGrid) OpacityBound(tf render.TransferFunction) []float64 {
	amax := make([]float64, len(m.mn))
	for i := range amax {
		amax[i] = tf.MaxOpacity(m.mn[i], m.mx[i])
	}
	return amax
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
