package raytrace

import (
	"math"

	"repro/internal/ops"
)

// gatherCost prices GatherScene over a grid of nCells cells whose
// external surface has nt triangles on np points, built into a BVH of
// nodes nodes: the gather launch, the face gather, the build launch.
func gatherCost(nCells, nt, np, nodes uint64) (p ops.Profile) {
	p.Launches = 2
	// The gather scans all cells for boundary membership. On a structured
	// grid this is an index test, but it still streams the cell index
	// space and touches the scalar, which is the data-intensive gather
	// the paper identifies.
	p.LoadBytes[ops.Stream] = nCells * 8
	p.IntOps = nCells * 14
	p.Branches = nCells * 6
	p.LoadBytes[ops.Strided] = np * 40 // face point/scalar gather
	p.StoreBytes[ops.Stream] = nt*12 + np*32
	// The binned-SAH build does ~n work per tree level — still n log n
	// with random reordering traffic, just with a smaller constant than
	// the old per-level sort.
	logn := uint64(1)
	if nt > 1 {
		logn = uint64(math.Log2(float64(nt))) + 1
	}
	p.IntOps += nt * logn * 8
	p.Flops = nt * logn * 4
	moves := nt * logn / 4
	p.LoadBytes[ops.Random] = moves * 64
	p.RandomAccesses = moves
	p.StoreBytes[ops.Stream] += nodes * 64
	// The hot footprint of the trace phase is the geometry plus the
	// acceleration structure; the gather streams the cell space once and
	// keeps nothing resident.
	p.WorkingSetBytes = nt*48 + nodes*64
	return
}

// frameCost prices a traced frame of pixels rays that visited nodes BVH
// nodes, ran tests triangle tests and shaded hits hits.
func frameCost(pixels, nodes, tests, hits uint64) (p ops.Profile) {
	p.Launches = 1
	p.Flops = pixels*12 + nodes*14 + tests*28 + hits*30
	p.IntOps = pixels*10 + nodes*6
	p.Branches = pixels*3 + nodes*3 + tests*4
	p.LoadBytes[ops.Resident] = nodes*64 + tests*112
	p.StoreBytes[ops.Stream] = pixels * 4
	return
}
