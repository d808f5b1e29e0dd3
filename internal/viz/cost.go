package viz

import (
	"repro/internal/mesh"
	"repro/internal/ops"
)

// ClipEmitCost charges what clip and isovolume share for an emission em
// of whole hexahedra (8 connectivity entries each) and tetrahedral
// pieces (4 each): gathering and storing the hexes, storing the pieces,
// and the weld.
func ClipEmitCost(p *ops.Profile, em mesh.Sizes) {
	whole := uint64(em.Conn-4*em.Cells) / 4
	pieces := uint64(em.Cells) - whole
	p.LoadBytes[ops.Strided] += whole * 8 * 32
	p.StoreBytes[ops.Stream] += whole*(8*32+8*4) + pieces*4*36
	p.IntOps += uint64(em.Points) * 8 // weld hashing
	p.LoadBytes[ops.Random] += uint64(em.Points) * 32
	p.RandomAccesses += uint64(em.Points)
}
