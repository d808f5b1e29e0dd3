package gradient

import "repro/internal/ops"

// cost prices the stencil launch over nPts points.
func cost(nPts uint64) (p ops.Profile) {
	p.Launches = 1
	p.LoadBytes[ops.Strided] = nPts * 6 * 8 // the 6-point stencil
	p.Flops = nPts * 18
	p.IntOps = nPts * 14
	p.Branches = nPts * 6
	p.StoreBytes[ops.Stream] = nPts * 32
	p.WorkingSetBytes = nPts * (8 + 32)
	return
}
