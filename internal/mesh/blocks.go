package mesh

import "fmt"

// This file provides the block decomposition the distributed
// (parallelize-over-data) algorithms run on: axis-aligned z-blocks that
// each own a contiguous range of cell layers plus a ghost halo of
// read-only neighbor layers, and a field sampler over one block whose
// arithmetic is bit-identical to sampling the undecomposed grid.
//
// The bit-identity design point: a slab grid extracted with a shifted
// origin does NOT reproduce the global grid's samples bit for bit — the
// world→index subtraction rounds differently when the origin moves. The
// block sampler therefore keeps the GLOBAL origin/spacing/extent for
// every index computation (subtract, reciprocal multiply, bounds test,
// clamp, trilinear weights) and only offsets the final corner gather
// into the block's local slab storage, which is legal because a full-xy
// z-slab preserves the x and y point strides of the global array.

// Block is one rank's piece of a z-decomposed grid: the owned cell
// layers [K0, K1), plus GhostLo/GhostHi halo layers of neighbor data
// below and above, extracted into an ordinary UniformGrid, together
// with the global geometry that keeps index arithmetic identical to
// the undecomposed grid.
type Block struct {
	// Grid holds local storage for cell layers [K0-GhostLo, K1+GhostHi)
	// with every point/cell field of the source grid.
	Grid *UniformGrid
	// K0, K1 are the owned global cell layers [K0, K1).
	K0, K1 int
	// GhostLo, GhostHi are the halo layers actually present below and
	// above the owned range (clamped at the domain faces).
	GhostLo, GhostHi int
	// Global geometry of the undecomposed grid.
	GlobalOrigin  Vec3
	GlobalSpacing Vec3
	GlobalCells   [3]int
}

// StoredLayers returns the global cell-layer range present in local
// storage (owned plus ghost), as [lo, hi).
func (b *Block) StoredLayers() (lo, hi int) { return b.K0 - b.GhostLo, b.K1 + b.GhostHi }

// BlockDecompose cuts the grid into n z-blocks with the same owned-layer
// split as SlabDecompose (layer k0 = s*cd/n) and up to ghost halo cell
// layers of read-only neighbor data on each side, clamped at the domain
// faces. ghost < 1 is promoted to the one-cell minimum.
func BlockDecompose(g *UniformGrid, n, ghost int) ([]Block, error) {
	cd := g.CellDims()
	if n < 1 || n > cd[2] {
		return nil, fmt.Errorf("mesh: cannot cut %d blocks from %d cell layers", n, cd[2])
	}
	if ghost < 1 {
		ghost = 1
	}
	out := make([]Block, n)
	for s := 0; s < n; s++ {
		k0 := s * cd[2] / n
		k1 := (s + 1) * cd[2] / n
		lo := k0 - ghost
		if lo < 0 {
			lo = 0
		}
		hi := k1 + ghost
		if hi > cd[2] {
			hi = cd[2]
		}
		sub, err := ExtractSlab(g, lo, hi)
		if err != nil {
			return nil, err
		}
		out[s] = Block{
			Grid: sub, K0: k0, K1: k1, GhostLo: k0 - lo, GhostHi: hi - k1,
			GlobalOrigin: g.Origin, GlobalSpacing: g.Spacing, GlobalCells: cd,
		}
	}
	return out, nil
}

// NewBlockVectorSampler builds a sampler over one block's copy of the
// named point vector field: a VectorSampler with the undecomposed grid's
// geometry whose stored window is the block's owned plus ghost layers.
func NewBlockVectorSampler(b Block, name string) (*VectorSampler, error) {
	f := b.Grid.PointVector(name)
	if f == nil {
		return nil, fmt.Errorf("mesh: block has no point vector field %q", name)
	}
	lo, hi := b.StoredLayers()
	return newVectorSampler(newSamplerGeomFrom(b.GlobalOrigin, b.GlobalSpacing, b.GlobalCells), f, lo, hi), nil
}
