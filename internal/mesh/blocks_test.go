package mesh

import (
	"math"
	"testing"
)

// blockTestGrid builds a grid with a smooth but non-trivial vector and
// scalar field.
func blockTestGrid(t *testing.T, n int) *UniformGrid {
	t.Helper()
	g, err := NewCubeGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	v := g.AddPointVector("velocity")
	f := g.AddPointField("energy")
	for id := 0; id < g.NumPoints(); id++ {
		p := g.PointPosition(id)
		v[id] = Vec3{
			math.Sin(3*p[0]) + p[1]*p[2],
			math.Cos(2*p[1]) - p[0],
			math.Sin(5*p[2])*0.7 + 0.1*p[0],
		}
		f[id] = p[0]*p[0] + 2*p[1] - p[2]
	}
	return g
}

// lcgProbes generates deterministic probe positions spanning inside,
// boundary, and outside space.
func lcgProbes(n int) []Vec3 {
	rng := uint64(12345)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	out := make([]Vec3, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Vec3{next()*1.2 - 0.1, next()*1.2 - 0.1, next()*1.2 - 0.1})
	}
	return out
}

// TestBlockDecomposePartition: owned layers partition the grid with the
// SlabDecompose split, halos clamp at the faces, and every stored plane
// matches the global field bit for bit.
func TestBlockDecomposePartition(t *testing.T) {
	g := blockTestGrid(t, 12)
	for _, nb := range []int{1, 2, 3, 4, 8} {
		blocks, err := BlockDecompose(g, nb, 2)
		if err != nil {
			t.Fatal(err)
		}
		cd := g.CellDims()
		next := 0
		for i, b := range blocks {
			if b.K0 != next {
				t.Fatalf("n=%d block %d starts at %d, want %d", nb, i, b.K0, next)
			}
			next = b.K1
			lo, hi := b.StoredLayers()
			if lo < 0 || hi > cd[2] || b.GhostLo > 2 || b.GhostHi > 2 {
				t.Fatalf("n=%d block %d halo out of range: stored [%d,%d) ghosts %d/%d",
					nb, i, lo, hi, b.GhostLo, b.GhostHi)
			}
			if i > 0 && b.GhostLo < 1 || i < nb-1 && b.GhostHi < 1 {
				t.Fatalf("n=%d block %d missing interior halo", nb, i)
			}
			// Every stored point matches the global field.
			gv := g.PointVector("velocity")
			bv := b.Grid.PointVector("velocity")
			for k := 0; k <= hi-lo; k++ {
				for j := 0; j < g.Dims[1]; j++ {
					for x := 0; x < g.Dims[0]; x++ {
						want := gv[g.PointID(x, j, k+lo)]
						got := bv[b.Grid.PointID(x, j, k)]
						if got != want {
							t.Fatalf("n=%d block %d point (%d,%d,%d) = %v, want %v", nb, i, x, j, k, got, want)
						}
					}
				}
			}
		}
		if next != cd[2] {
			t.Fatalf("n=%d blocks cover %d layers, want %d", nb, next, cd[2])
		}
	}
}

// TestBlockSamplerBitIdentical: for every in-domain probe, the block
// sampler on the owning block returns exactly the global sampler's
// bits; out-of-domain probes fail on both without tripping Escaped.
func TestBlockSamplerBitIdentical(t *testing.T) {
	g := blockTestGrid(t, 16)
	global, err := NewVectorSampler(g, "velocity")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := BlockDecompose(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]*VectorSampler, len(blocks))
	for i := range blocks {
		if samplers[i], err = NewBlockVectorSampler(blocks[i], "velocity"); err != nil {
			t.Fatal(err)
		}
	}
	probes := lcgProbes(4000)
	// Boundary-exact probes: on the slab cut planes and domain faces.
	for _, z := range []float64{0, 0.25, 0.5, 0.75, 1} {
		probes = append(probes, Vec3{0.3, 0.4, z}, Vec3{0, 0, z}, Vec3{1, 1, z})
	}
	checked := 0
	for _, p := range probes {
		want, wok := global.Sample(p)
		layer, lok := global.CellLayer(p[0], p[1], p[2])
		if !lok {
			if wok {
				t.Fatalf("probe %v: CellLayer rejects but Sample accepts", p)
			}
			// Out of domain: every block sampler must also reject, cleanly.
			for i, s := range samplers {
				if _, ok := s.Sample(p); ok {
					t.Fatalf("probe %v: block %d accepts out-of-domain", p, i)
				}
				if s.Escaped() {
					t.Fatalf("probe %v: block %d flagged escape for out-of-domain probe", p, i)
				}
			}
			continue
		}
		for i := range blocks {
			if !blocks[i].OwnsLayer(layer) {
				continue
			}
			got, ok := samplers[i].Sample(p)
			if !ok || got != want {
				t.Fatalf("probe %v (layer %d, block %d): got %v ok=%v, want %v", p, layer, i, got, ok, want)
			}
			checked++
		}
	}
	if checked < 2000 {
		t.Fatalf("only %d in-domain probes checked", checked)
	}
	// A probe far outside a block's stored layers (but in-domain) must
	// latch Escaped instead of returning a value.
	if _, ok := samplers[0].Sample(Vec3{0.5, 0.5, 0.9}); ok {
		t.Fatal("block 0 answered a probe in block 3's layers")
	}
	if !samplers[0].Escaped() {
		t.Fatal("escape not latched")
	}
}

// TestBlockSamplerGhostReach: probes inside the halo (within one layer
// of the owned range) still answer bit-identically — that is what makes
// RK4 stage probes from boundary particles safe.
func TestBlockSamplerGhostReach(t *testing.T) {
	g := blockTestGrid(t, 16)
	global, _ := NewVectorSampler(g, "velocity")
	blocks, err := BlockDecompose(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[1] // interior block: halo on both sides
	s, err := NewBlockVectorSampler(b, "velocity")
	if err != nil {
		t.Fatal(err)
	}
	sp := g.Spacing[2]
	zLo := float64(b.K0) * sp
	zHi := float64(b.K1) * sp
	for _, z := range []float64{zLo - 1.5*sp, zLo - 0.5*sp, zLo, zHi, zHi + 0.5*sp, zHi + 1.5*sp} {
		p := Vec3{0.37, 0.61, z}
		want, wok := global.Sample(p)
		got, ok := s.Sample(p)
		if ok != wok || got != want {
			t.Fatalf("halo probe %v: got %v ok=%v, want %v ok=%v", p, got, ok, want, wok)
		}
	}
	if s.Escaped() {
		t.Fatal("halo probes within 2 ghost layers must not escape")
	}
}

// TestWholeGridSamplerNeverEscapes: a whole-grid sampler's window is
// every layer, so no probe — inside, on a face, or outside — latches
// Escaped.
func TestWholeGridSamplerNeverEscapes(t *testing.T) {
	for _, n := range []int{8, 6} {
		s, err := NewVectorSampler(samplerTestGrid(t, n), "v")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range samplerProbePoints(2000) {
			s.Sample(p)
			if s.Escaped() {
				t.Fatalf("n=%d: whole-grid sampler escaped at %v", n, p)
			}
		}
	}
}

// TestSamplerCopyOwnsItsLatch: parallel kernels give each worker a value
// copy of a prototype; an escape on one copy must show on neither the
// prototype nor a sibling.
func TestSamplerCopyOwnsItsLatch(t *testing.T) {
	blocks, err := BlockDecompose(blockTestGrid(t, 16), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewBlockVectorSampler(blocks[0], "velocity")
	if err != nil {
		t.Fatal(err)
	}
	a, b := *proto, *proto
	if _, ok := a.Sample(Vec3{0.5, 0.5, 0.9}); ok || !a.Escaped() {
		t.Fatalf("copy did not latch an out-of-block probe (ok=%v)", ok)
	}
	if proto.Escaped() || b.Escaped() {
		t.Fatalf("latch shared: prototype %v, sibling %v", proto.Escaped(), b.Escaped())
	}
}

// TestInDomainMatchesSampling: InDomain agrees with SampleVector and
// the fast sampler on every probe, including boundary-exact positions —
// the shared seed-validation contract.
func TestInDomainMatchesSampling(t *testing.T) {
	g := blockTestGrid(t, 8)
	s, _ := NewVectorSampler(g, "velocity")
	probes := append(lcgProbes(2000),
		Vec3{0, 0, 0}, Vec3{1, 1, 1}, Vec3{0.5, 0.5, 1}, Vec3{1, 0.5, 0.5},
		Vec3{-1e-300, 0.5, 0.5}, Vec3{0.5, 0.5, math.Nextafter(1, 2)},
		Vec3{math.NaN(), 0.5, 0.5}, Vec3{0.5, math.NaN(), 0.5}, Vec3{0.5, 0.5, math.NaN()})
	for _, p := range probes {
		in := g.InDomain(p)
		if in && math.IsNaN(p[0]+p[1]+p[2]) {
			t.Fatalf("probe %v: a NaN position is in the domain", p)
		}
		_, byName := g.SampleVector("velocity", p)
		_, fast := s.Sample(p)
		if in != byName || in != fast {
			t.Fatalf("probe %v: InDomain=%v SampleVector=%v sampler=%v", p, in, byName, fast)
		}
	}
}
