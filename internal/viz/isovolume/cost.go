package isovolume

import (
	"repro/internal/mesh"
	"repro/internal/ops"
	"repro/internal/viz"
)

// cost prices an isovolume run: the classify-and-fill launch over
// nCells cells of a fieldLen-point field, straddle of which were
// subdivided, into the emission em welded to outPoints points.
func cost(nCells, straddle uint64, em mesh.Sizes, fieldLen, outPoints uint64) (p ops.Profile) {
	p.Launches = 1
	p.LoadBytes[ops.Strided] = nCells * 8 * 8
	p.Flops = nCells * 16
	p.Branches = nCells * 5
	p.IntOps = nCells * 10
	// Straddling cells are read twice (one gather per clip pass) and run
	// the full two-sided subdivision arithmetic.
	p.LoadBytes[ops.Strided] += straddle * 2 * 8 * 32
	p.Flops += straddle * 6 * 120 // two clip chains per tet
	p.IntOps += straddle * 6 * 60
	p.Branches += straddle * 6 * 16
	viz.ClipEmitCost(&p, em)
	p.WorkingSetBytes = fieldLen*8 + outPoints*40
	return
}
