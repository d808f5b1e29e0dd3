package volren

import "repro/internal/ops"

// macroCost prices BuildMacroGrid's launch over cd cells cut into dims
// bricks. A brick's point hull adds the shared face on each axis, so
// along an axis the hulls hold the cells plus one point per brick.
func macroCost(cd, dims [3]int) (p ops.Profile) {
	nb := uint64(dims[0] * dims[1] * dims[2])
	pts := uint64((cd[0] + dims[0]) * (cd[1] + dims[1]) * (cd[2] + dims[2]))
	p.Launches = 1
	p.Flops = pts * 2 // the two range comparisons per point
	p.IntOps = nb*24 + pts*2
	p.Branches = pts * 2
	p.LoadBytes[ops.Stream] = pts * 8
	p.StoreBytes[ops.Stream] = nb * 16
	return
}

// frameCost prices one marched frame of pixels rays that took samples
// samples and skipped skipped, visited bricks bricks and skipped
// skippedBricks. Per taken sample the demand matches the reference
// sampler: the trilinear reconstruction and blend are identical
// arithmetic, the LUT lerp replaces the normalize+colormap math flop for
// flop, and the incremental index-space advance replaces the locate
// divisions — same 52 flops and the same 8 corner loads (64 resident
// bytes). One branch per sample disappears with the colormap's piecewise
// test. Per skipped sample only the lattice advance remains; each
// visited brick adds its min/max consult and exit math, with the
// macrocell table counted as resident loads — it is the definition of a
// cache-hot structure.
func frameCost(pixels, samples, skipped, bricks, skippedBricks uint64) (p ops.Profile) {
	p.Launches = 1
	p.Flops = samples*52 + skipped*1 + bricks*6 + pixels*18
	p.IntOps = samples*16 + bricks*14 + pixels*8
	p.Branches = samples*3 + skipped*1 + bricks*3 + pixels*3
	p.LoadBytes[ops.Resident] = samples*64 + (bricks+skippedBricks)*16
	p.StoreBytes[ops.Stream] = pixels * 4
	return
}

// workingSet is an orbit's footprint over a field of fieldLen points.
// Rays resample the whole volume every image: the working set is the
// full point field (this is what overflows the LLC at 256³ and produces
// the paper's Fig. 5 IPC drop).
func workingSet(fieldLen uint64) (p ops.Profile) {
	p.WorkingSetBytes = fieldLen * 8
	return
}
