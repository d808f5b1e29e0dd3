package slice

import "repro/internal/ops"

// distanceCost prices one plane's signed-distance launch over nPts
// points.
func distanceCost(nPts uint64) (p ops.Profile) {
	p.Launches = 1
	p.Flops = nPts * 9
	p.IntOps = nPts * 6
	p.StoreBytes[ops.Stream] = nPts * 8
	return
}

// workingSet is the whole run's footprint: the distance and carry
// fields over nPts points and the cut surface as a per-cell emission
// writes it, surfPoints points (three a triangle).
func workingSet(nPts, surfPoints uint64) (p ops.Profile) {
	p.WorkingSetBytes = nPts*16 + surfPoints*32
	return
}
