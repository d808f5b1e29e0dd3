package clip

import (
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// cost prices a clip run: the distance launch over nPts points, and the
// classify-and-fill launch over nCells cells, straddle of which were
// subdivided, into the emission em welded to outPoints points.
func cost(nPts, nCells, straddle uint64, em mesh.Sizes, outPoints uint64) (p ops.Profile) {
	p.Launches = 2
	// Position reconstruction, three squares, a square root (counted at
	// its multi-op latency), and the subtraction, per point.
	p.Flops = nPts * 22
	p.IntOps = nPts * 6
	p.StoreBytes[ops.Stream] = nPts * 8
	p.LoadBytes[ops.Strided] = nCells * 8 * 8 // 8 corner distances per cell
	p.Flops += nCells * 16
	p.Branches = nCells * 4
	p.IntOps += nCells * 10
	p.LoadBytes[ops.Strided] += straddle * 8 * 32
	p.Flops += straddle * 6 * 60 // tet assembly + clip interpolation
	p.IntOps += straddle * 6 * 25
	p.Branches += straddle * 6 * 8
	viz.ClipEmitCost(&p, em)
	p.WorkingSetBytes = nPts*16 + outPoints*40
	return
}
